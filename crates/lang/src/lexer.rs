//! Tokenizer for the constraint language.
//!
//! Tolerant of what demo users actually type: ASCII or curly quotes,
//! `&&`/`AND`/`∧` and `||`/`OR`/`∨` interchangeably, `=` or `==`, `!=` or
//! `<>` or `≠`, and `≥`/`≤` for the ASCII digraphs.

use crate::error::ParseError;

/// One lexical token with its byte offset.
#[derive(Debug, Clone, PartialEq)]
pub struct Token {
    pub kind: TokenKind,
    pub position: usize,
}

#[derive(Debug, Clone, PartialEq)]
pub enum TokenKind {
    /// A quoted string: the quotes are stripped, content kept verbatim.
    Quoted(String),
    /// An unquoted word (may be part of a multi-word keyword).
    Word(String),
    And,
    Or,
    LParen,
    RParen,
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
    Contains,
    /// A user-defined function reference: `@name`.
    Udf(String),
}

/// Lex a full constraint string.
pub fn lex(input: &str) -> Result<Vec<Token>, ParseError> {
    let mut out = Vec::new();
    let chars: Vec<(usize, char)> = input.char_indices().collect();
    let mut i = 0usize;
    while i < chars.len() {
        let (pos, c) = chars[i];
        match c {
            c if c.is_whitespace() => {
                i += 1;
            }
            '(' => {
                out.push(Token {
                    kind: TokenKind::LParen,
                    position: pos,
                });
                i += 1;
            }
            ')' => {
                out.push(Token {
                    kind: TokenKind::RParen,
                    position: pos,
                });
                i += 1;
            }
            '\'' | '"' | '\u{2018}' | '\u{201C}' => {
                let closers: &[char] = match c {
                    '\'' => &['\'', '\u{2019}'],
                    '"' => &['"', '\u{201D}'],
                    '\u{2018}' => &['\u{2019}', '\''],
                    _ => &['\u{201D}', '"'],
                };
                let start = i + 1;
                let mut j = start;
                while j < chars.len() && !closers.contains(&chars[j].1) {
                    j += 1;
                }
                if j >= chars.len() {
                    return Err(ParseError::new(pos, "unterminated quoted string"));
                }
                let content: String = chars[start..j].iter().map(|&(_, ch)| ch).collect();
                out.push(Token {
                    kind: TokenKind::Quoted(content),
                    position: pos,
                });
                i = j + 1;
            }
            '\u{2019}' | '\u{201D}' => {
                return Err(ParseError::new(pos, "closing quote without an opening one"));
            }
            '&' => {
                if matches!(chars.get(i + 1), Some(&(_, '&'))) {
                    out.push(Token {
                        kind: TokenKind::And,
                        position: pos,
                    });
                    i += 2;
                } else {
                    return Err(ParseError::new(pos, "expected `&&`"));
                }
            }
            '|' => {
                if matches!(chars.get(i + 1), Some(&(_, '|'))) {
                    out.push(Token {
                        kind: TokenKind::Or,
                        position: pos,
                    });
                    i += 2;
                } else {
                    return Err(ParseError::new(pos, "expected `||`"));
                }
            }
            '\u{2227}' => {
                out.push(Token {
                    kind: TokenKind::And,
                    position: pos,
                });
                i += 1;
            }
            '\u{2228}' => {
                out.push(Token {
                    kind: TokenKind::Or,
                    position: pos,
                });
                i += 1;
            }
            '=' => {
                let len = if matches!(chars.get(i + 1), Some(&(_, '='))) {
                    2
                } else {
                    1
                };
                out.push(Token {
                    kind: TokenKind::Eq,
                    position: pos,
                });
                i += len;
            }
            '!' => {
                if matches!(chars.get(i + 1), Some(&(_, '='))) {
                    out.push(Token {
                        kind: TokenKind::Ne,
                        position: pos,
                    });
                    i += 2;
                } else {
                    return Err(ParseError::new(pos, "expected `!=`"));
                }
            }
            '\u{2260}' => {
                out.push(Token {
                    kind: TokenKind::Ne,
                    position: pos,
                });
                i += 1;
            }
            '@' => {
                let start = i + 1;
                let mut j = start;
                while j < chars.len() && !is_word_boundary(chars[j].1) {
                    j += 1;
                }
                if j == start {
                    return Err(ParseError::new(pos, "expected a UDF name after `@`"));
                }
                let name: String = chars[start..j].iter().map(|&(_, ch)| ch).collect();
                out.push(Token {
                    kind: TokenKind::Udf(name),
                    position: pos,
                });
                i = j;
            }
            '<' => match chars.get(i + 1) {
                Some(&(_, '=')) => {
                    out.push(Token {
                        kind: TokenKind::Le,
                        position: pos,
                    });
                    i += 2;
                }
                Some(&(_, '>')) => {
                    out.push(Token {
                        kind: TokenKind::Ne,
                        position: pos,
                    });
                    i += 2;
                }
                _ => {
                    out.push(Token {
                        kind: TokenKind::Lt,
                        position: pos,
                    });
                    i += 1;
                }
            },
            '>' => {
                if matches!(chars.get(i + 1), Some(&(_, '='))) {
                    out.push(Token {
                        kind: TokenKind::Ge,
                        position: pos,
                    });
                    i += 2;
                } else {
                    out.push(Token {
                        kind: TokenKind::Gt,
                        position: pos,
                    });
                    i += 1;
                }
            }
            '\u{2264}' => {
                out.push(Token {
                    kind: TokenKind::Le,
                    position: pos,
                });
                i += 1;
            }
            '\u{2265}' => {
                out.push(Token {
                    kind: TokenKind::Ge,
                    position: pos,
                });
                i += 1;
            }
            _ => {
                // Bareword: read until whitespace or a structural character.
                // The first character is always taken, so a boundary
                // character without an arm of its own cannot stall the loop.
                let start = i;
                i += 1;
                while i < chars.len() && !is_word_boundary(chars[i].1) {
                    i += 1;
                }
                let word: String = chars[start..i].iter().map(|&(_, ch)| ch).collect();
                let kind = match word.to_ascii_uppercase().as_str() {
                    "AND" => TokenKind::And,
                    "OR" => TokenKind::Or,
                    "CONTAINS" => TokenKind::Contains,
                    _ => TokenKind::Word(word),
                };
                out.push(Token {
                    kind,
                    position: chars[start].0,
                });
            }
        }
    }
    Ok(out)
}

fn is_word_boundary(c: char) -> bool {
    c.is_whitespace()
        || matches!(
            c,
            '(' | ')'
                | '@'
                | '\''
                | '"'
                | '&'
                | '|'
                | '='
                | '!'
                | '<'
                | '>'
                | '\u{2018}'
                | '\u{2019}'
                | '\u{201C}'
                | '\u{201D}'
                | '\u{2227}'
                | '\u{2228}'
                | '\u{2260}'
                | '\u{2264}'
                | '\u{2265}'
        )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(s: &str) -> Vec<TokenKind> {
        lex(s).unwrap().into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn lexes_disjunction_of_barewords() {
        assert_eq!(
            kinds("California || Nevada"),
            vec![
                TokenKind::Word("California".into()),
                TokenKind::Or,
                TokenKind::Word("Nevada".into()),
            ]
        );
    }

    #[test]
    fn lexes_multiword_keyword_as_separate_words() {
        assert_eq!(
            kinds("Lake Tahoe"),
            vec![
                TokenKind::Word("Lake".into()),
                TokenKind::Word("Tahoe".into()),
            ]
        );
    }

    #[test]
    fn lexes_the_papers_metadata_constraint() {
        // Verbatim from the demo walk-through (including `==`).
        assert_eq!(
            kinds("DataType=='decimal' AND MinValue>='0'"),
            vec![
                TokenKind::Word("DataType".into()),
                TokenKind::Eq,
                TokenKind::Quoted("decimal".into()),
                TokenKind::And,
                TokenKind::Word("MinValue".into()),
                TokenKind::Ge,
                TokenKind::Quoted("0".into()),
            ]
        );
    }

    #[test]
    fn curly_quotes_accepted() {
        assert_eq!(
            kinds("DataType==\u{2018}decimal\u{2019}"),
            vec![
                TokenKind::Word("DataType".into()),
                TokenKind::Eq,
                TokenKind::Quoted("decimal".into()),
            ]
        );
    }

    #[test]
    fn unicode_logic_and_comparison_symbols() {
        assert_eq!(
            kinds("\u{2265} 5 \u{2227} \u{2264} 10"),
            vec![
                TokenKind::Ge,
                TokenKind::Word("5".into()),
                TokenKind::And,
                TokenKind::Le,
                TokenKind::Word("10".into()),
            ]
        );
        assert_eq!(
            kinds("\u{2260} 3"),
            vec![TokenKind::Ne, TokenKind::Word("3".into())]
        );
    }

    #[test]
    fn ne_spellings() {
        assert_eq!(kinds("!= 1")[0], TokenKind::Ne);
        assert_eq!(kinds("<> 1")[0], TokenKind::Ne);
    }

    #[test]
    fn and_or_keywords_case_insensitive() {
        assert_eq!(kinds("a and b")[1], TokenKind::And);
        assert_eq!(kinds("a Or b")[1], TokenKind::Or);
        assert_eq!(kinds("x CONTAINS y")[1], TokenKind::Contains);
    }

    #[test]
    fn quoted_strings_preserve_operators_inside() {
        assert_eq!(kinds("'a || b'"), vec![TokenKind::Quoted("a || b".into())]);
    }

    #[test]
    fn errors_carry_positions() {
        let err = lex("abc & def").unwrap_err();
        assert_eq!(err.position, 4);
        let err = lex("'unterminated").unwrap_err();
        assert_eq!(err.position, 0);
        assert!(lex("a | b").is_err());
        assert!(lex("a ! b").is_err());
    }

    /// A closing curly quote without an opening one once lexed as an empty
    /// word without advancing, so the token list grew until memory ran out.
    /// Smart punctuation turns O'Hare into `O’Hare`.
    #[test]
    fn unopened_closing_quotes_are_errors() {
        for (input, at) in [
            ("O\u{2019}Hare", 1),
            ("\u{201D}", 0),
            ("1990-01-01\u{201D}+", 10),
        ] {
            assert_eq!(lex(input).unwrap_err().position, at, "{input}");
            let err = crate::parse_value_constraint(input).unwrap_err();
            assert_eq!(err.position, at, "{input}");
        }
        // The ASCII spelling opens a quote that never closes.
        assert_eq!(lex("O'Hare").unwrap_err().position, 1);
    }

    #[test]
    fn parens_and_empty_input() {
        assert_eq!(
            kinds("( x )"),
            vec![
                TokenKind::LParen,
                TokenKind::Word("x".into()),
                TokenKind::RParen
            ]
        );
        assert!(kinds("").is_empty());
        assert!(kinds("   ").is_empty());
    }

    #[test]
    fn hyphenated_and_accented_words_stay_whole() {
        assert_eq!(
            kinds("Baden-W\u{fc}rttemberg"),
            vec![TokenKind::Word("Baden-W\u{fc}rttemberg".into())]
        );
    }
}
