//! Hand-rolled JSON emission, one object per line (the bins' output style).
//!
//! The workspace is zero-dependency by policy (`scripts/verify.sh` builds
//! offline), so there is no serde. [`JsonWriter`] is a tiny append-only
//! builder that tracks comma placement with a nesting stack.

/// Append-only JSON builder. Values are written in document order; the
/// writer inserts commas and handles string escaping. Nesting is tracked
/// with a small stack so objects and arrays can be interleaved freely.
#[derive(Debug, Default)]
pub struct JsonWriter {
    buf: String,
    /// One entry per open container: `true` once the first element has
    /// been written (so the next element needs a leading comma).
    stack: Vec<bool>,
}

impl JsonWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    fn comma(&mut self) {
        if let Some(top) = self.stack.last_mut() {
            if *top {
                self.buf.push(',');
            }
            *top = true;
        }
    }

    fn push_escaped(&mut self, s: &str) {
        self.buf.push('"');
        for c in s.chars() {
            match c {
                '"' => self.buf.push_str("\\\""),
                '\\' => self.buf.push_str("\\\\"),
                '\n' => self.buf.push_str("\\n"),
                '\t' => self.buf.push_str("\\t"),
                '\r' => self.buf.push_str("\\r"),
                c if (c as u32) < 0x20 => {
                    self.buf.push_str(&format!("\\u{:04x}", c as u32));
                }
                c => self.buf.push(c),
            }
        }
        self.buf.push('"');
    }

    /// Opens an anonymous object (top level or inside an array).
    pub fn begin_object(&mut self) -> &mut Self {
        self.comma();
        self.buf.push('{');
        self.stack.push(false);
        self
    }

    /// Opens an object-valued field: `"key":{`.
    pub fn begin_object_field(&mut self, key: &str) -> &mut Self {
        self.key(key);
        self.buf.push('{');
        self.stack.push(false);
        self
    }

    /// Closes the innermost object.
    pub fn end_object(&mut self) -> &mut Self {
        self.stack.pop();
        self.buf.push('}');
        self
    }

    /// Opens an array-valued field: `"key":[`.
    pub fn begin_array_field(&mut self, key: &str) -> &mut Self {
        self.key(key);
        self.buf.push('[');
        self.stack.push(false);
        self
    }

    /// Closes the innermost array.
    pub fn end_array(&mut self) -> &mut Self {
        self.stack.pop();
        self.buf.push(']');
        self
    }

    /// Writes `"key":` (comma-managed); the next raw value call supplies
    /// the value. Prefer the typed `field_*` helpers.
    pub fn key(&mut self, key: &str) -> &mut Self {
        self.comma();
        self.push_escaped(key);
        self.buf.push(':');
        self
    }

    /// `"key":123`
    pub fn field_u64(&mut self, key: &str, v: u64) -> &mut Self {
        self.key(key);
        self.buf.push_str(&v.to_string());
        self
    }

    /// `"key":1.50` (fixed two decimals — finite inputs only; non-finite
    /// values are clamped to `0.00` to keep the output valid JSON).
    pub fn field_f64(&mut self, key: &str, v: f64) -> &mut Self {
        self.key(key);
        let v = if v.is_finite() { v } else { 0.0 };
        self.buf.push_str(&format!("{v:.2}"));
        self
    }

    /// `"key":"value"` (escaped).
    pub fn field_str(&mut self, key: &str, v: &str) -> &mut Self {
        self.key(key);
        self.push_escaped(v);
        self
    }

    /// `"key":true`
    pub fn field_bool(&mut self, key: &str, v: bool) -> &mut Self {
        self.key(key);
        self.buf.push_str(if v { "true" } else { "false" });
        self
    }

    /// Bare number inside an array.
    pub fn value_u64(&mut self, v: u64) -> &mut Self {
        self.comma();
        self.buf.push_str(&v.to_string());
        self
    }

    /// Bare string inside an array (escaped).
    pub fn value_str(&mut self, v: &str) -> &mut Self {
        self.comma();
        self.push_escaped(v);
        self
    }

    /// Consumes the writer and returns the JSON text.
    pub fn finish(self) -> String {
        self.buf
    }

    /// Borrowed view of the text built so far.
    pub fn as_str(&self) -> &str {
        &self.buf
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_objects_and_arrays() {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.field_str("name", "a\"b");
        w.field_u64("n", 7);
        w.begin_object_field("inner");
        w.field_bool("ok", true);
        w.field_f64("x", 1.5);
        w.end_object();
        w.begin_array_field("xs");
        w.value_u64(1).value_u64(2);
        w.value_str("three");
        w.end_array();
        w.end_object();
        assert_eq!(
            w.finish(),
            r#"{"name":"a\"b","n":7,"inner":{"ok":true,"x":1.50},"xs":[1,2,"three"]}"#
        );
    }

    #[test]
    fn non_finite_floats_are_clamped() {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.field_f64("bad", f64::NAN);
        w.end_object();
        assert_eq!(w.finish(), r#"{"bad":0.00}"#);
    }

    #[test]
    fn control_chars_escape() {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.field_str("s", "a\nb\u{1}");
        w.end_object();
        assert_eq!(w.finish(), "{\"s\":\"a\\nb\\u0001\"}");
    }
}
