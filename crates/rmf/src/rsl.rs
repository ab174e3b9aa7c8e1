//! A small RSL (Resource Specification Language) parser.
//!
//! Globus job requests are RSL expressions like:
//!
//! ```text
//! &(executable=knapsack)(count=8)(arguments=--items 50)(resource=COMPaS)
//! ```
//!
//! We support the conjunction form the GRAM gatekeeper consumes:
//! `&(key=value)(key=value)…`, with quoted values for embedded
//! spaces/parens and repeated keys for lists.

use std::fmt;

/// A parsed job request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobRequest {
    pub executable: String,
    /// Total process count.
    pub count: u32,
    pub arguments: Vec<String>,
    /// Explicit resource names (empty = let the allocator choose).
    pub resources: Vec<String>,
    /// Input files to stage in via GASS, as `(remote_name, gass_path)`.
    pub stage_in: Vec<(String, String)>,
    /// Environment-ish free-form extras.
    pub extras: Vec<(String, String)>,
}

/// RSL parse errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RslError {
    Syntax(String),
    MissingExecutable,
    BadCount(String),
}

impl fmt::Display for RslError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RslError::Syntax(m) => write!(f, "RSL syntax error: {m}"),
            RslError::MissingExecutable => write!(f, "RSL is missing (executable=…)"),
            RslError::BadCount(v) => write!(f, "bad (count={v})"),
        }
    }
}

impl std::error::Error for RslError {}

/// Tokenize `&(k=v)(k=v)` into pairs.
fn pairs(input: &str) -> Result<Vec<(String, String)>, RslError> {
    let s = input.trim();
    let s = s
        .strip_prefix('&')
        .ok_or_else(|| RslError::Syntax("expected leading '&'".into()))?;
    let mut out = Vec::new();
    let mut chars = s.chars().peekable();
    while let Some(&c) = chars.peek() {
        if c.is_whitespace() {
            chars.next();
            continue;
        }
        if c != '(' {
            return Err(RslError::Syntax(format!("expected '(', found {c:?}")));
        }
        chars.next();
        let mut key = String::new();
        for c in chars.by_ref() {
            if c == '=' {
                break;
            }
            key.push(c);
        }
        if key.is_empty() {
            return Err(RslError::Syntax("empty key".into()));
        }
        let mut value = String::new();
        let mut closed = false;
        if chars.peek() == Some(&'"') {
            chars.next();
            let mut terminated = false;
            for c in chars.by_ref() {
                if c == '"' {
                    terminated = true;
                    break;
                }
                value.push(c);
            }
            if !terminated {
                return Err(RslError::Syntax("unterminated quote".into()));
            }
            match chars.next() {
                Some(')') => closed = true,
                other => {
                    return Err(RslError::Syntax(format!(
                        "expected ')' after quoted value, found {other:?}"
                    )))
                }
            }
        } else {
            for c in chars.by_ref() {
                if c == ')' {
                    closed = true;
                    break;
                }
                value.push(c);
            }
        }
        if !closed {
            return Err(RslError::Syntax(format!("unclosed clause for key {key}")));
        }
        out.push((key.trim().to_string(), value.trim().to_string()));
    }
    Ok(out)
}

/// Parse an RSL string into a [`JobRequest`].
pub fn parse(input: &str) -> Result<JobRequest, RslError> {
    let mut req = JobRequest {
        executable: String::new(),
        count: 1,
        arguments: Vec::new(),
        resources: Vec::new(),
        stage_in: Vec::new(),
        extras: Vec::new(),
    };
    for (k, v) in pairs(input)? {
        match k.as_str() {
            "executable" => req.executable = v,
            "count" => {
                req.count = v.parse().map_err(|_| RslError::BadCount(v.clone()))?;
                if req.count == 0 {
                    return Err(RslError::BadCount(v));
                }
            }
            "arguments" => req
                .arguments
                .extend(v.split_whitespace().map(str::to_string)),
            "resource" => req.resources.push(v),
            "stage_in" => {
                // name<gass-path
                let (name, path) = v
                    .split_once('<')
                    .ok_or_else(|| RslError::Syntax(format!("stage_in needs name<path: {v}")))?;
                req.stage_in.push((name.trim().into(), path.trim().into()));
            }
            _ => req.extras.push((k, v)),
        }
    }
    if req.executable.is_empty() {
        return Err(RslError::MissingExecutable);
    }
    Ok(req)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_typical_request() {
        let r = parse("&(executable=knapsack)(count=20)(arguments=--items 50)(resource=COMPaS)(resource=ETL-O2K)").unwrap();
        assert_eq!(r.executable, "knapsack");
        assert_eq!(r.count, 20);
        assert_eq!(r.arguments, vec!["--items", "50"]);
        assert_eq!(r.resources, vec!["COMPaS", "ETL-O2K"]);
    }

    #[test]
    fn quoted_values_keep_spaces_and_parens() {
        let r = parse(r#"&(executable=sh)(arguments="run (all) phases")"#).unwrap();
        // Quoted argument still splits on whitespace per MPI argv rules.
        assert_eq!(r.arguments, vec!["run", "(all)", "phases"]);
    }

    #[test]
    fn stage_in_and_extras() {
        let r =
            parse("&(executable=x)(stage_in=data.txt<gass://rwcp-sun/inputs/d1)(env=A=1)").unwrap();
        assert_eq!(
            r.stage_in,
            vec![(
                "data.txt".to_string(),
                "gass://rwcp-sun/inputs/d1".to_string()
            )]
        );
        assert_eq!(r.extras, vec![("env".to_string(), "A=1".to_string())]);
    }

    #[test]
    fn default_count_is_one() {
        assert_eq!(parse("&(executable=x)").unwrap().count, 1);
    }

    #[test]
    fn errors() {
        assert!(matches!(parse("(executable=x)"), Err(RslError::Syntax(_))));
        assert!(matches!(
            parse("&(count=4)"),
            Err(RslError::MissingExecutable)
        ));
        assert!(matches!(
            parse("&(executable=x)(count=0)"),
            Err(RslError::BadCount(_))
        ));
        assert!(matches!(
            parse("&(executable=x)(count=zz)"),
            Err(RslError::BadCount(_))
        ));
        assert!(matches!(parse("&(executable=x"), Err(RslError::Syntax(_))));
        assert!(matches!(
            parse(r#"&(executable="x"#),
            Err(RslError::Syntax(_))
        ));
        assert!(matches!(parse("&(=v)"), Err(RslError::Syntax(_))));
        assert!(matches!(
            parse("&(executable=x)(stage_in=nope)"),
            Err(RslError::Syntax(_))
        ));
    }

    /// SplitMix64 — a local deterministic stream for randomized tests.
    fn test_rng(seed: u64) -> impl FnMut() -> u64 {
        let mut s = seed;
        move || {
            s = s.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = s;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
    }

    /// The parser is total: printable-ASCII noise never panics it.
    #[test]
    fn parser_total_on_random_text() {
        let mut r = test_rng(0x51);
        for _ in 0..2000 {
            let len = (r() % 64) as usize;
            let s: String = (0..len)
                .map(|_| (0x20 + (r() % 95) as u8) as char)
                .collect();
            let _ = parse(&s);
        }
    }
}
