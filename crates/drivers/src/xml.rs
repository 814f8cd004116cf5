//! A minimal borrowed XML pull-scanner, sufficient for the gmond dialect
//! (elements, double-quoted attributes, self-closing tags, declarations,
//! no text content we care about). [`Tags`] yields one [`Tag`] per markup
//! tag and [`Attrs`] one pair per attribute, all slices of the document;
//! the only allocation is unescaping a value that contains an entity.
//! The Ganglia driver's "greater overhead … to parse values from the
//! response" (§3.2.4) happens here. Attributes are checked as they are
//! pulled, so a consumer that must reject a damaged document drains the
//! [`Attrs`] of every tag, including the tags it has no use for.

use std::borrow::Cow;
use std::fmt;

/// One markup tag. Names borrow from the document.
#[derive(Debug, Clone)]
pub enum Tag<'a> {
    /// `<name a="v" ...>`
    Open(&'a str, Attrs<'a>),
    /// `<name a="v" .../>`
    SelfClose(&'a str, Attrs<'a>),
    /// `</name>`
    Close(&'a str),
}

/// Scanner errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct XmlError {
    /// What went wrong.
    pub message: String,
    /// Byte offset of the tag.
    pub offset: usize,
}

impl fmt::Display for XmlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "XML error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for XmlError {}

/// What a scanner's `next` answers when the tag at `offset` is damaged.
fn fail<T>(message: impl Into<String>, offset: usize) -> Option<Result<T, XmlError>> {
    let message = message.into();
    Some(Err(XmlError { message, offset }))
}

const ENTITIES: [(&str, &str); 5] = [
    ("&amp;", "&"),
    ("&lt;", "<"),
    ("&gt;", ">"),
    ("&quot;", "\""),
    ("&apos;", "'"),
];

/// Decode the five standard entities; borrowed when there are none.
fn unescape(s: &str) -> Cow<'_, str> {
    if !s.contains('&') {
        return Cow::Borrowed(s);
    }
    let mut out = String::with_capacity(s.len());
    let mut rest = s;
    while let Some(idx) = rest.find('&') {
        out.push_str(&rest[..idx]);
        rest = &rest[idx..];
        // A lone `&` stands for itself.
        let (from, to) = ENTITIES
            .into_iter()
            .find(|(from, _)| rest.starts_with(from))
            .unwrap_or(("&", "&"));
        out.push_str(to);
        rest = &rest[from.len()..];
    }
    out.push_str(rest);
    Cow::Owned(out)
}

/// A tag or attribute name: non-empty, and free of the characters that
/// only get into one when a quote, `=` or `>` went missing nearby.
fn is_name(s: &str) -> bool {
    let stray = |b: u8| b.is_ascii_whitespace() || matches!(b, b'<' | b'"' | b'\'' | b'=');
    !s.is_empty() && !s.bytes().any(stray)
}

/// The tags of a document in order, skipping declarations, comments and
/// text.
#[derive(Debug, Clone)]
pub struct Tags<'a> {
    xml: &'a str,
    pos: usize,
}

impl<'a> Tags<'a> {
    /// Scan `xml` from its start.
    pub fn new(xml: &'a str) -> Tags<'a> {
        Tags { xml, pos: 0 }
    }
}

impl<'a> Iterator for Tags<'a> {
    type Item = Result<Tag<'a>, XmlError>;

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            let offset = self.pos + self.xml[self.pos..].find('<')?;
            let Some(len) = self.xml[offset..].find('>') else {
                self.pos = self.xml.len();
                return fail("unterminated tag", offset);
            };
            let inner = &self.xml[offset + 1..offset + len];
            self.pos = offset + len + 1;
            if inner.starts_with(['?', '!']) {
                continue; // declaration / comment / doctype
            }
            if let Some(name) = inner.strip_prefix('/') {
                let name = name.trim();
                if !is_name(name) {
                    return fail("malformed closing tag", offset);
                }
                return Some(Ok(Tag::Close(name)));
            }
            let (body, self_close) = match inner.strip_suffix('/') {
                Some(body) => (body.trim(), true),
                None => (inner.trim(), false),
            };
            let (name, rest) = body.split_at(body.find(char::is_whitespace).unwrap_or(body.len()));
            if !is_name(name) {
                return fail("empty or malformed tag name", offset);
            }
            let attrs = Attrs {
                rest: rest.trim_start(),
                offset,
            };
            return Some(Ok(if self_close {
                Tag::SelfClose(name, attrs)
            } else {
                Tag::Open(name, attrs)
            }));
        }
    }
}

/// The attributes of one tag in document order: `(name, unescaped
/// value)`. An error ends the iteration.
#[derive(Debug, Clone)]
pub struct Attrs<'a> {
    rest: &'a str,
    offset: usize,
}

impl<'a> Iterator for Attrs<'a> {
    type Item = Result<(&'a str, Cow<'a, str>), XmlError>;

    fn next(&mut self) -> Option<Self::Item> {
        let rest = std::mem::take(&mut self.rest);
        if rest.is_empty() {
            return None;
        }
        let Some((key, after)) = rest.split_once('=') else {
            return fail(format!("attribute without '=': {rest}"), self.offset);
        };
        let key = key.trim_end();
        if !is_name(key) {
            return fail(format!("malformed attribute name: {key}"), self.offset);
        }
        let Some(quoted) = after.trim_start().strip_prefix('"') else {
            return fail("attribute value must be double-quoted", self.offset);
        };
        let Some((value, after)) = quoted.split_once('"') else {
            return fail("unterminated attribute value", self.offset);
        };
        self.rest = after.trim_start();
        Some(Ok((key, unescape(value))))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type Scanned = (&'static str, String, Vec<(String, String)>);

    /// Drain a document: every tag with its attributes, or the first error.
    fn scan(xml: &str) -> Result<Vec<Scanned>, XmlError> {
        let owned = |attrs: Attrs<'_>| {
            attrs
                .map(|a| a.map(|(k, v)| (k.to_owned(), v.into_owned())))
                .collect::<Result<Vec<_>, _>>()
        };
        Tags::new(xml)
            .map(|tag| {
                Ok(match tag? {
                    Tag::Open(name, attrs) => ("open", name.to_owned(), owned(attrs)?),
                    Tag::SelfClose(name, attrs) => ("self-close", name.to_owned(), owned(attrs)?),
                    Tag::Close(name) => ("close", name.to_owned(), Vec::new()),
                })
            })
            .collect()
    }

    #[test]
    fn scan_gmond_shape() {
        let xml = r#"<?xml version="1.0"?>
<GANGLIA_XML VERSION="2.5.7" SOURCE="gmond">
<CLUSTER NAME="site-a" LOCALTIME="120">
<HOST NAME="node00" IP="10.0.0.1" REPORTED="120">
<METRIC NAME="load_one" VAL="0.75" TYPE="float" UNITS=""/>
</HOST>
</CLUSTER>
</GANGLIA_XML>"#;
        let tags = scan(xml).unwrap();
        assert_eq!(tags.len(), 7);
        let (kind, name, attrs) = &tags[0];
        assert_eq!((*kind, name.as_str()), ("open", "GANGLIA_XML"));
        assert_eq!(attrs[0], ("VERSION".to_owned(), "2.5.7".to_owned()));
        assert_eq!((tags[3].0, tags[3].1.as_str()), ("self-close", "METRIC"));
        assert_eq!((tags[6].0, tags[6].1.as_str()), ("close", "GANGLIA_XML"));
    }

    #[test]
    fn unescape_entities() {
        assert_eq!(unescape("a&lt;b&amp;c&gt;&quot;&apos;"), "a<b&c>\"'");
        assert_eq!(unescape("no entities"), "no entities");
        assert_eq!(unescape("lone & amp"), "lone & amp");
    }

    #[test]
    fn escaped_attr_roundtrip() {
        let tags = scan(r#"<X NAME="a&amp;b &lt;c&gt;"/>"#).unwrap();
        assert_eq!(tags[0].2, [("NAME".to_owned(), "a&b <c>".to_owned())]);
    }

    #[test]
    fn errors_reported() {
        assert!(scan("<unclosed").is_err());
        assert!(scan(r#"<A B/>"#).is_err()); // attribute without =
        assert!(scan(r#"<A B='x'/>"#).is_err()); // single quotes unsupported
        assert!(scan(r#"<A B="x/>"#).is_err()); // unterminated value
        assert!(scan("< A=\"x\">").is_err()); // empty name
        assert!(scan(r#"<A B="x C="y"/>"#).is_err()); // a quote went missing
        assert!(scan("</A\n<A>").is_err()); // a `>` went missing
    }

    #[test]
    fn text_content_ignored() {
        let tags = scan("<a>some text</a>").unwrap();
        assert_eq!(tags.len(), 2);
    }
}
