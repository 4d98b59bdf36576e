//! Query fingerprinting: the literal-lifting normalizer behind the
//! translation cache.
//!
//! BI-tool workloads are dominated by the *same* statement templates
//! re-issued with different literals (paper §7.1's workload study; the
//! dashboard refresh pattern). The normalizer walks the token stream,
//! lifts every `Number`/string literal into a synthetic parameter slot and
//! hashes the remaining shape — comments, whitespace and keyword case all
//! vanish in tokenization, so `SEL * FROM t WHERE a=1` and
//! `select *  from T where A = 2 -- hi` share one fingerprint.
//!
//! The fingerprint deliberately stays *below* the AST: it must be cheap
//! enough to compute on a cache hit, where the whole point is skipping the
//! parse.

use crate::error::ParseError;
use crate::lexer::tokenize;
use crate::token::Token;

/// The lexical class of a lifted literal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LiteralKind {
    /// Numeric literal (`Token::Number`), digits verbatim.
    Number,
    /// Single-quoted string literal (`Token::StringLit`).
    String,
}

/// One literal lifted out of the statement, in source order.
#[derive(Debug, Clone, PartialEq)]
pub struct LiteralSlot {
    pub kind: LiteralKind,
    /// The literal exactly as it appears in SQL text: digits verbatim for
    /// numbers; including the surrounding quotes (with `''` escaping) for
    /// strings. This rendering is shared with the serializer, so a literal
    /// that passes through translation untouched reappears byte-identical
    /// in the target SQL.
    pub text: String,
    /// Byte span of the literal in the fingerprinted input.
    pub start: usize,
    pub end: usize,
}

impl LiteralSlot {
    /// Render a string value the way both the lexer consumed it and the
    /// serializer emits it.
    pub fn render_string(value: &str) -> String {
        format!("'{}'", value.replace('\'', "''"))
    }
}

/// The result of normalizing one SQL text.
#[derive(Debug, Clone)]
pub struct Fingerprint {
    /// 64-bit FNV-1a hash of the literal-normalized token stream.
    pub hash: u64,
    /// Every lifted literal, in source order.
    pub literals: Vec<LiteralSlot>,
    /// Number of non-empty top-level statements (semicolon-separated).
    pub statements: usize,
    /// The text references a volatile builtin (`CURRENT_DATE`,
    /// `CURRENT_TIME`, `CURRENT_TIMESTAMP`, `RANDOM`): its translation may
    /// not be stable across executions, so the cache must not hold it.
    pub volatile: bool,
}

const FNV_OFFSET: u64 = 0xcbf29ce484222325;
const FNV_PRIME: u64 = 0x100000001b3;

/// Streaming FNV-1a.
#[derive(Clone, Copy)]
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(FNV_OFFSET)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }

    fn write_u8(&mut self, b: u8) {
        self.write(&[b]);
    }

    fn finish(self) -> u64 {
        self.0
    }
}

/// Hash arbitrary bytes with the same FNV-1a the fingerprint uses; shared
/// with the cache-key context hashing in `hyperq-core`.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv::new();
    h.write(bytes);
    h.finish()
}

fn is_volatile_word(w: &str) -> bool {
    w.eq_ignore_ascii_case("CURRENT_DATE")
        || w.eq_ignore_ascii_case("CURRENT_TIME")
        || w.eq_ignore_ascii_case("CURRENT_TIMESTAMP")
        || w.eq_ignore_ascii_case("RANDOM")
}

/// Normalize `sql`: lift literals, hash the shape.
///
/// Trailing semicolons do not participate in the hash, so `X` and `X;`
/// fingerprint identically; interior semicolons do, so a multi-statement
/// script never collides with a single statement of the same tokens.
pub fn fingerprint(sql: &str) -> Result<Fingerprint, ParseError> {
    let tokens = tokenize(sql)?;
    let mut hash = Fnv::new();
    let mut literals = Vec::new();
    let mut statements = 0usize;
    let mut volatile = false;
    // Semicolons are buffered and only hashed once a later real token
    // proves they are interior separators, not a trailing terminator.
    let mut pending_semis = 0u32;
    let mut tokens_in_statement = 0usize;
    for sp in &tokens {
        if matches!(sp.token, Token::Eof) {
            break;
        }
        if matches!(sp.token, Token::Semicolon) {
            if tokens_in_statement > 0 {
                statements += 1;
                tokens_in_statement = 0;
            }
            pending_semis += 1;
            continue;
        }
        for _ in 0..pending_semis {
            hash.write_u8(0x0b);
        }
        pending_semis = 0;
        tokens_in_statement += 1;
        match &sp.token {
            Token::Word(w) => {
                if is_volatile_word(w) {
                    volatile = true;
                }
                hash.write_u8(0x01);
                for b in w.bytes() {
                    hash.write_u8(b.to_ascii_uppercase());
                }
            }
            Token::QuotedIdent(s) => {
                hash.write_u8(0x02);
                hash.write(s.as_bytes());
            }
            Token::Number(n) => {
                hash.write_u8(0x03);
                literals.push(LiteralSlot {
                    kind: LiteralKind::Number,
                    text: n.clone(),
                    start: sp.offset,
                    end: sp.offset + n.len(),
                });
            }
            Token::StringLit(s) => {
                hash.write_u8(0x04);
                let text = LiteralSlot::render_string(s);
                let end = sp.offset + text.len();
                literals.push(LiteralSlot {
                    kind: LiteralKind::String,
                    text,
                    start: sp.offset,
                    end,
                });
            }
            Token::NamedParam(n) => {
                hash.write_u8(0x05);
                hash.write(n.as_bytes());
            }
            other => {
                // Operators and punctuation: a stable tag per kind.
                hash.write_u8(0x10 + operator_tag(other));
            }
        }
    }
    if tokens_in_statement > 0 {
        statements += 1;
    }
    Ok(Fingerprint { hash: hash.finish(), literals, statements, volatile })
}

fn operator_tag(t: &Token) -> u8 {
    match t {
        Token::Question => 0,
        Token::Comma => 1,
        Token::LParen => 2,
        Token::RParen => 3,
        Token::Dot => 4,
        Token::Plus => 5,
        Token::Minus => 6,
        Token::Star => 7,
        Token::Slash => 8,
        Token::Percent => 9,
        Token::Concat => 10,
        Token::Power => 11,
        Token::Eq => 12,
        Token::Neq => 13,
        Token::Lt => 14,
        Token::Le => 15,
        Token::Gt => 16,
        Token::Ge => 17,
        // Word/QuotedIdent/Number/StringLit/NamedParam/Semicolon/Eof are
        // handled before this function is reached.
        _ => 18,
    }
}

/// Rebuild a SQL text with each lifted literal replaced by the
/// corresponding replacement text (used to construct probe statements when
/// verifying a template's literal holes). `slots` must be in source order
/// and `replacements` the same length.
pub fn splice_source(sql: &str, slots: &[LiteralSlot], replacements: &[String]) -> String {
    debug_assert_eq!(slots.len(), replacements.len());
    let mut out = String::with_capacity(sql.len());
    let mut cursor = 0usize;
    for (slot, rep) in slots.iter().zip(replacements) {
        out.push_str(&sql[cursor..slot.start]);
        out.push_str(rep);
        cursor = slot.end;
    }
    out.push_str(&sql[cursor..]);
    out
}

/// Redact every literal in `sql` with a class tag — numbers become `?`,
/// strings become `'?'` — via the literal spans of `fp`, the fingerprint
/// of `sql` (`None` when it did not lex). Statement shape, identifiers and
/// keywords survive untouched, so redacted text is still useful for
/// forensics. Text that does not tokenize is replaced wholesale: if the
/// literal spans are unknown, nothing of the text can be trusted not to be
/// a literal.
pub fn redact_literals(sql: &str, fp: Option<&Fingerprint>) -> String {
    let Some(fp) = fp else {
        return "<unlexable statement redacted>".to_string();
    };
    let reps: Vec<String> = fp
        .literals
        .iter()
        .map(|l| match l.kind {
            LiteralKind::Number => "?".to_string(),
            LiteralKind::String => "'?'".to_string(),
        })
        .collect();
    splice_source(sql, &fp.literals, &reps)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_shape_different_literals_share_fingerprint() {
        let a = fingerprint("SELECT * FROM SALES WHERE AMOUNT > 100 AND REGION = 'WEST'").unwrap();
        let b = fingerprint("select *  from sales\nWHERE amount > 2 AND region = 'N''E'").unwrap();
        assert_eq!(a.hash, b.hash);
        assert_eq!(a.literals.len(), 2);
        assert_eq!(a.literals[0].text, "100");
        assert_eq!(a.literals[1].text, "'WEST'");
        assert_eq!(b.literals[1].text, "'N''E'");
        assert_eq!(a.statements, 1);
    }

    #[test]
    fn different_shape_differs() {
        let a = fingerprint("SELECT A FROM T").unwrap();
        let b = fingerprint("SELECT B FROM T").unwrap();
        let c = fingerprint("SELECT A FROM T WHERE A = 1").unwrap();
        assert_ne!(a.hash, b.hash);
        assert_ne!(a.hash, c.hash);
    }

    #[test]
    fn comments_whitespace_and_case_are_normalized() {
        let a = fingerprint("SELECT A FROM T -- trailing\n").unwrap();
        let b = fingerprint("/* x */ select  a FROM t").unwrap();
        assert_eq!(a.hash, b.hash);
    }

    #[test]
    fn trailing_semicolon_is_ignored_but_interior_counts() {
        let a = fingerprint("SELECT A FROM T").unwrap();
        let b = fingerprint("SELECT A FROM T;").unwrap();
        let c = fingerprint("SELECT A FROM T; SELECT A FROM T").unwrap();
        assert_eq!(a.hash, b.hash);
        assert_eq!(b.statements, 1);
        assert_ne!(a.hash, c.hash);
        assert_eq!(c.statements, 2);
    }

    #[test]
    fn quoted_identifiers_are_not_literals_and_case_sensitive() {
        let a = fingerprint("SELECT \"a\" FROM T").unwrap();
        let b = fingerprint("SELECT \"A\" FROM T").unwrap();
        assert_ne!(a.hash, b.hash);
        assert!(a.literals.is_empty());
    }

    #[test]
    fn volatile_builtins_are_flagged() {
        assert!(fingerprint("SELECT CURRENT_DATE FROM T").unwrap().volatile);
        assert!(fingerprint("SELECT current_timestamp").unwrap().volatile);
        assert!(!fingerprint("SELECT A FROM T").unwrap().volatile);
    }

    #[test]
    fn spans_support_splicing() {
        let sql = "SELECT 'it''s', 42 FROM T WHERE X = 7";
        let fp = fingerprint(sql).unwrap();
        let texts: Vec<String> = fp.literals.iter().map(|l| l.text.clone()).collect();
        assert_eq!(texts, vec!["'it''s'", "42", "7"]);
        // Identity splice reproduces the input.
        assert_eq!(splice_source(sql, &fp.literals, &texts), sql);
        // Replacement splice.
        let reps = vec!["'no'".to_string(), "1".to_string(), "2".to_string()];
        assert_eq!(
            splice_source(sql, &fp.literals, &reps),
            "SELECT 'no', 1 FROM T WHERE X = 2"
        );
    }

    #[test]
    fn redaction_replaces_literals_with_class_tags() {
        let redact = |sql: &str| redact_literals(sql, fingerprint(sql).ok().as_ref());
        assert_eq!(
            redact("SELECT NAME FROM T WHERE ID = 42 AND CITY = 'Ber''lin'"),
            "SELECT NAME FROM T WHERE ID = ? AND CITY = '?'"
        );
        // No literals: text passes through.
        assert_eq!(redact("SELECT A FROM T"), "SELECT A FROM T");
        // Unlexable text is dropped entirely rather than stored raw.
        assert!(fingerprint("SELECT 'unterminated").is_err());
        assert_eq!(redact("SELECT 'unterminated"), "<unlexable statement redacted>");
        assert_eq!(redact_literals("SELECT 1", None), "<unlexable statement redacted>");
    }

    #[test]
    fn redaction_reuses_the_callers_fingerprint() {
        // One lex serves both the hash and the redaction: the spans index
        // the text they came from, across statements and comments.
        let sql = "SEL A FROM T WHERE B = -7 /* 'c' */ AND C IN ('x', 1.5); SEL 'y'";
        let fp = fingerprint(sql).unwrap();
        assert_eq!(fp.literals.len(), 4);
        assert_eq!(
            redact_literals(sql, Some(&fp)),
            "SEL A FROM T WHERE B = -? /* 'c' */ AND C IN ('?', ?); SEL '?'"
        );
        let other = fingerprint("SELECT A FROM T WHERE B = 123456").unwrap();
        assert_eq!(fp.hash, fingerprint(&sql.replace("-7", "-8")).unwrap().hash);
        assert_eq!(
            redact_literals("SELECT A FROM T WHERE B = 123456", Some(&other)),
            "SELECT A FROM T WHERE B = ?"
        );
    }

    #[test]
    fn named_and_positional_params_fingerprint_by_name() {
        let a = fingerprint("SELECT * FROM T WHERE A = :p1").unwrap();
        let b = fingerprint("SELECT * FROM T WHERE A = :p2").unwrap();
        let q = fingerprint("SELECT * FROM T WHERE A = ?").unwrap();
        assert_ne!(a.hash, b.hash);
        assert_ne!(a.hash, q.hash);
        assert!(a.literals.is_empty());
    }
}
