//! The little JSON this benchmark reads back: its own `BENCH.json`
//! files (for `compare`) and the result line of a child run. Objects,
//! arrays, strings without escapes beyond `\"` and `\\`, numbers,
//! `true`/`false`/`null` — what the benchmark itself writes.

use std::collections::BTreeMap;

#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(BTreeMap<String, Json>),
}

impl Json {
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(a) => Some(a),
            _ => None,
        }
    }

    pub fn as_obj(&self) -> Option<&BTreeMap<String, Json>> {
        match self {
            Json::Obj(m) => Some(m),
            _ => None,
        }
    }
}

pub fn parse(text: &str) -> Result<Json, String> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        at: 0,
    };
    let value = p.value()?;
    p.space();
    if p.at != p.bytes.len() {
        return Err(format!("trailing bytes at offset {}", p.at));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl Parser<'_> {
    fn space(&mut self) {
        while self.bytes.get(self.at).is_some_and(u8::is_ascii_whitespace) {
            self.at += 1;
        }
    }

    fn eat(&mut self, byte: u8) -> Result<(), String> {
        self.space();
        if self.bytes.get(self.at) == Some(&byte) {
            self.at += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at offset {}", byte as char, self.at))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.space();
        match self.bytes.get(self.at) {
            Some(b'{') => {
                self.at += 1;
                let mut map = BTreeMap::new();
                self.space();
                if self.bytes.get(self.at) == Some(&b'}') {
                    self.at += 1;
                    return Ok(Json::Obj(map));
                }
                loop {
                    self.space();
                    let key = self.string()?;
                    self.eat(b':')?;
                    map.insert(key, self.value()?);
                    self.space();
                    match self.bytes.get(self.at) {
                        Some(b',') => self.at += 1,
                        Some(b'}') => {
                            self.at += 1;
                            return Ok(Json::Obj(map));
                        }
                        _ => return Err(format!("expected ',' or '}}' at offset {}", self.at)),
                    }
                }
            }
            Some(b'[') => {
                self.at += 1;
                let mut items = Vec::new();
                self.space();
                if self.bytes.get(self.at) == Some(&b']') {
                    self.at += 1;
                    return Ok(Json::Arr(items));
                }
                loop {
                    items.push(self.value()?);
                    self.space();
                    match self.bytes.get(self.at) {
                        Some(b',') => self.at += 1,
                        Some(b']') => {
                            self.at += 1;
                            return Ok(Json::Arr(items));
                        }
                        _ => return Err(format!("expected ',' or ']' at offset {}", self.at)),
                    }
                }
            }
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(_) => {
                let start = self.at;
                while self
                    .bytes
                    .get(self.at)
                    .is_some_and(|b| !b",]}".contains(b) && !b.is_ascii_whitespace())
                {
                    self.at += 1;
                }
                let word =
                    std::str::from_utf8(&self.bytes[start..self.at]).map_err(|e| e.to_string())?;
                match word {
                    "true" => Ok(Json::Bool(true)),
                    "false" => Ok(Json::Bool(false)),
                    "null" => Ok(Json::Null),
                    n => n
                        .parse()
                        .map(Json::Num)
                        .map_err(|_| format!("bad token {n:?} at offset {start}")),
                }
            }
            None => Err("unexpected end of input".into()),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = Vec::new();
        loop {
            match self.bytes.get(self.at) {
                Some(b'"') => {
                    self.at += 1;
                    return String::from_utf8(out).map_err(|e| e.to_string());
                }
                Some(b'\\') => {
                    match self.bytes.get(self.at + 1) {
                        Some(&c @ (b'"' | b'\\' | b'/')) => out.push(c),
                        Some(b'n') => out.push(b'\n'),
                        Some(b't') => out.push(b'\t'),
                        _ => return Err(format!("unsupported escape at offset {}", self.at)),
                    }
                    self.at += 2;
                }
                Some(&b) => {
                    out.push(b);
                    self.at += 1;
                }
                None => return Err("unterminated string".into()),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_result_line() {
        let line = r#"{"correct": true, "attempted": 12, "failed": 0,
            "metrics": {"setup_s": {"value": 0.5, "unit": "s"}, "x": {"value": -1e-3, "unit": "1/s"}},
            "runs": [1, 2.5, []], "none": null, "s": "a\"b"}"#;
        let j = parse(line).unwrap();
        assert_eq!(j.get("correct"), Some(&Json::Bool(true)));
        assert_eq!(j.get("attempted").and_then(Json::as_f64), Some(12.0));
        let m = j.get("metrics").unwrap();
        assert_eq!(
            m.get("x")
                .and_then(|x| x.get("value"))
                .and_then(Json::as_f64),
            Some(-0.001)
        );
        assert_eq!(
            m.get("setup_s")
                .and_then(|x| x.get("unit"))
                .and_then(Json::as_str),
            Some("s")
        );
        assert_eq!(
            j.get("runs").and_then(Json::as_arr).map(<[Json]>::len),
            Some(3)
        );
        assert_eq!(j.get("s").and_then(Json::as_str), Some("a\"b"));
        assert!(parse("{\"a\": 1} x").is_err());
        assert!(parse("{\"a\": }").is_err());
    }

    #[test]
    fn parses_the_benchmark_description() {
        let j = parse(&crate::metrics::benchmark_json()).unwrap();
        assert_eq!(
            j.get("paths").and_then(Json::as_arr),
            Some(&[Json::Str("bench".into())][..])
        );
        assert_eq!(
            j.get("workloads").and_then(Json::as_arr).map(<[Json]>::len),
            Some(4)
        );
    }
}
