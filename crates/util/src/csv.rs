//! Minimal CSV encoding/decoding.
//!
//! The LDMS stream store plugin converts connector JSON messages into
//! CSV rows before DSOS ingest (the paper's Figure 3 shows the CSV
//! header). Fields containing commas, quotes, or newlines are quoted per
//! RFC 4180.

/// Escapes one field for CSV output.
pub(crate) fn escape_field(field: &str) -> String {
    if field.contains(',') || field.contains('"') || field.contains('\n') || field.contains('\r') {
        let mut out = String::with_capacity(field.len() + 2);
        out.push('"');
        for c in field.chars() {
            if c == '"' {
                out.push('"');
            }
            out.push(c);
        }
        out.push('"');
        out
    } else {
        field.to_string()
    }
}

/// Encodes one CSV row (no trailing newline).
pub fn encode_row<S: AsRef<str>>(fields: &[S]) -> String {
    let mut out = String::new();
    for (i, f) in fields.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&escape_field(f.as_ref()));
    }
    out
}

/// Decodes one CSV row into owned fields.
///
/// Handles quoted fields with embedded commas, escaped quotes (`""`),
/// and embedded newlines (the caller must hand in the complete logical
/// row).
pub fn decode_row(row: &str) -> Vec<String> {
    let mut fields = Vec::new();
    let mut cur = String::new();
    let mut chars = row.chars().peekable();
    let mut in_quotes = false;
    while let Some(c) = chars.next() {
        if in_quotes {
            match c {
                '"' => {
                    if chars.peek() == Some(&'"') {
                        chars.next();
                        cur.push('"');
                    } else {
                        in_quotes = false;
                    }
                }
                c => cur.push(c),
            }
        } else {
            match c {
                '"' => in_quotes = true,
                ',' => {
                    fields.push(std::mem::take(&mut cur));
                }
                c => cur.push(c),
            }
        }
    }
    fields.push(cur);
    fields
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simple_round_trip() {
        let row = encode_row(&["a", "b", "c"]);
        assert_eq!(row, "a,b,c");
        assert_eq!(decode_row(&row), vec!["a", "b", "c"]);
    }

    #[test]
    fn quoting_commas_and_quotes() {
        let row = encode_row(&["x,y", "say \"hi\"", "plain"]);
        assert_eq!(row, "\"x,y\",\"say \"\"hi\"\"\",plain");
        assert_eq!(decode_row(&row), vec!["x,y", "say \"hi\"", "plain"]);
    }

    #[test]
    fn empty_fields_survive() {
        let row = encode_row(&["", "", "z"]);
        assert_eq!(decode_row(&row), vec!["", "", "z"]);
    }

    #[test]
    fn newline_in_field_is_quoted() {
        let row = encode_row(&["a\nb"]);
        assert_eq!(row, "\"a\nb\"");
        assert_eq!(decode_row(&row), vec!["a\nb"]);
    }

    #[test]
    fn single_empty_row_is_one_empty_field() {
        assert_eq!(decode_row(""), vec![""]);
    }
}
