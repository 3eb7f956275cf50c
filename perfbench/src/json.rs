//! A minimal JSON object writer for the benchmark's one-line records.

use std::fmt::Write as _;

/// Builds one JSON object.
#[derive(Default)]
pub struct Object {
    body: String,
}

impl Object {
    /// An empty object.
    pub fn new() -> Self {
        Object::default()
    }

    fn key(&mut self, key: &str) -> &mut String {
        if !self.body.is_empty() {
            self.body.push(',');
        }
        let _ = write!(self.body, "\"{}\":", escape(key));
        &mut self.body
    }

    /// Adds a number; non-finite values become `null`.
    pub fn num(&mut self, key: &str, v: f64) -> &mut Self {
        let out = self.key(key);
        if v.is_finite() {
            let _ = write!(out, "{v:?}");
        } else {
            out.push_str("null");
        }
        self
    }

    /// Adds an unsigned integer.
    pub fn int(&mut self, key: &str, v: u64) -> &mut Self {
        let _ = write!(self.key(key), "{v}");
        self
    }

    /// Adds a string.
    pub fn str(&mut self, key: &str, v: &str) -> &mut Self {
        let _ = write!(self.key(key), "\"{}\"", escape(v));
        self
    }

    /// Adds already-rendered JSON.
    pub fn raw(&mut self, key: &str, json: &str) -> &mut Self {
        self.key(key).push_str(json);
        self
    }

    /// The rendered object.
    pub fn finish(&self) -> String {
        format!("{{{}}}", self.body)
    }
}

/// A JSON array of strings.
pub fn strings(items: &[String]) -> String {
    let quoted: Vec<String> = items.iter().map(|s| format!("\"{}\"", escape(s))).collect();
    format!("[{}]", quoted.join(","))
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}
