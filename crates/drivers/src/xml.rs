//! A minimal borrowed XML pull-scanner, sufficient for the gmond dialect
//! (elements, double-quoted attributes, self-closing tags, declarations,
//! no text content we care about). [`Tags`] yields one [`Tag`] per markup
//! tag and [`Attrs`] one pair per attribute, all slices of the document;
//! the only allocation is unescaping a value that contains an entity.
//! The Ganglia driver's "greater overhead … to parse values from the
//! response" (§3.2.4) happens here. Attributes are checked as they are
//! pulled, so a consumer that must reject a damaged document drains the
//! [`Attrs`] of every tag, including the tags it has no use for.
//!
//! # How the scan works
//!
//! Every delimiter the scanner looks for (`<`, `>`, `=`, `"`, `&`) is
//! ASCII, and in UTF-8 an ASCII byte is never part of a longer character,
//! so the scan reads bytes and every position it finds is a character
//! boundary. Delimiters are found eight bytes at a time: a word of the
//! document is XORed with the needle repeated in every byte, which turns
//! each match into a zero byte, and `(x - 0x01…01) & !x & 0x80…80` flags
//! the zero bytes. The subtraction's borrow can flag a byte above a real
//! match but never below one, so the lowest flag is always exact. A
//! value's closing `"` and its first `&` are found in the same pass, so
//! a value is read once, and only one holding an entity is unescaped.
//!
//! White space around names and `=` is trimmed, and a tag name split
//! off, a byte at a time. That is exact only for ASCII: `str::trim`
//! strips whatever `char::is_whitespace` accepts, which includes U+000B
//! and the multi-byte U+00A0 and U+2003, while a name may hold anything
//! but `<"'=` and ASCII white space, which excludes U+000B. So the moment
//! a byte that a trim or the name split must classify is ≥ 0x80, the
//! rest of that span goes to the `str` method the byte loop stands for.
//! A gmond dump is ASCII and never takes that fallback; every document
//! gets the same tags, values, errors and offsets either way.

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

/// 0x01 in every byte of a word.
const ONES: u64 = u64::from_le_bytes([0x01; 8]);
/// 0x80 in every byte of a word.
const HIGHS: u64 = u64::from_le_bytes([0x80; 8]);

/// The high bit of each byte of `word` that is one of `needles`, read
/// little-endian. The lowest flag is exact; one above it may be false.
fn matches<const N: usize>(word: u64, needles: [u8; N]) -> u64 {
    needles.into_iter().fold(0, |hits, needle| {
        let x = word ^ (ONES * u64::from(needle));
        hits | (x.wrapping_sub(ONES) & !x & HIGHS)
    })
}

/// The index of the first byte of `hay` from `from` on that is one of
/// `needles`, searched eight bytes at a time.
fn find_any<const N: usize>(hay: &[u8], from: usize, needles: [u8; N]) -> Option<usize> {
    let (words, tail) = hay.get(from..)?.as_chunks::<8>();
    for (i, word) in words.iter().enumerate() {
        let hits = matches(u64::from_le_bytes(*word), needles);
        if hits != 0 {
            return Some(from + i * 8 + hits.trailing_zeros() as usize / 8);
        }
    }
    let at = tail.iter().position(|b| needles.contains(b))?;
    Some(from + words.len() * 8 + at)
}

/// What `char::is_whitespace` says of an ASCII byte.
fn is_space(b: u8) -> bool {
    matches!(b, b' ' | b'\t'..=b'\r')
}

/// `s.trim_start()`, a byte at a time while the bytes are ASCII.
fn trim_start(s: &str) -> &str {
    match s.bytes().enumerate().find(|&(_, b)| !is_space(b)) {
        // Only ASCII precedes `i`, so it is a character boundary.
        Some((i, b)) if b.is_ascii() => &s[i..],
        Some((i, _)) => s[i..].trim_start(),
        None => "",
    }
}

/// `s.trim_end()`, a byte at a time while the bytes are ASCII.
fn trim_end(s: &str) -> &str {
    match s.bytes().enumerate().rfind(|&(_, b)| !is_space(b)) {
        // Only ASCII follows `i`, so `i + 1` is a character boundary.
        Some((i, b)) if b.is_ascii() => &s[..=i],
        Some((i, _)) => s[..=i].trim_end(),
        None => "",
    }
}

/// `s.trim()`.
fn trim(s: &str) -> &str {
    trim_end(trim_start(s))
}

/// `s` split before its first `char::is_whitespace`.
fn split_name(s: &str) -> (&str, &str) {
    let first = s
        .bytes()
        .enumerate()
        .find(|&(_, b)| is_space(b) || !b.is_ascii());
    let at = match first {
        // Only ASCII precedes `i`, so it is a character boundary.
        Some((i, b)) if b.is_ascii() => i,
        Some((i, _)) => s[i..]
            .find(char::is_whitespace)
            .map_or(s.len(), |at| i + at),
        None => s.len(),
    };
    s.split_at(at)
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
            let offset = find_any(self.xml.as_bytes(), self.pos, [b'<'])?;
            let Some(end) = find_any(self.xml.as_bytes(), offset, [b'>']) else {
                self.pos = self.xml.len();
                return fail("unterminated tag", offset);
            };
            let inner = &self.xml[offset + 1..end];
            self.pos = end + 1;
            if inner.starts_with(['?', '!']) {
                continue; // declaration / comment / doctype
            }
            if let Some(name) = inner.strip_prefix('/') {
                let name = trim(name);
                if !is_name(name) {
                    return fail("malformed closing tag", offset);
                }
                return Some(Ok(Tag::Close(name)));
            }
            let (body, self_close) = match inner.strip_suffix('/') {
                Some(body) => (trim(body), true),
                None => (trim(inner), false),
            };
            let (name, rest) = split_name(body);
            if !is_name(name) {
                return fail("empty or malformed tag name", offset);
            }
            let attrs = Attrs {
                rest: trim_start(rest),
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

/// The length of the value that opens `quoted` (the text after its
/// opening `"`) up to its closing `"`, and whether it holds a `&`.
fn value_end(quoted: &str) -> Option<(usize, bool)> {
    let quoted = quoted.as_bytes();
    let at = find_any(quoted, 0, [b'"', b'&'])?;
    if quoted.get(at) == Some(&b'"') {
        return Some((at, false));
    }
    Some((find_any(quoted, at, [b'"'])?, true))
}

impl<'a> Iterator for Attrs<'a> {
    type Item = Result<(&'a str, Cow<'a, str>), XmlError>;

    fn next(&mut self) -> Option<Self::Item> {
        let rest = std::mem::take(&mut self.rest);
        if rest.is_empty() {
            return None;
        }
        let Some(eq) = find_any(rest.as_bytes(), 0, [b'=']) else {
            return fail(format!("attribute without '=': {rest}"), self.offset);
        };
        let key = trim_end(&rest[..eq]);
        if !is_name(key) {
            return fail(format!("malformed attribute name: {key}"), self.offset);
        }
        let Some(quoted) = trim_start(&rest[eq + 1..]).strip_prefix('"') else {
            return fail("attribute value must be double-quoted", self.offset);
        };
        let Some((end, escaped)) = value_end(quoted) else {
            return fail("unterminated attribute value", self.offset);
        };
        let value = &quoted[..end];
        self.rest = trim_start(&quoted[end + 1..]);
        let value = if escaped {
            unescape(value)
        } else {
            Cow::Borrowed(value)
        };
        Some(Ok((key, value)))
    }
}

/// One step of a drained scan, owned so two scans can be compared.
#[cfg(test)]
#[derive(Debug, PartialEq)]
enum Event {
    /// A tag's kind and name.
    Tag(&'static str, String),
    /// An attribute's name and value, and whether the value borrows.
    Attr(String, String, bool),
    /// A tag or attribute error.
    Error(XmlError),
}

#[cfg(test)]
impl Event {
    fn attr(attr: Result<(&str, Cow<'_, str>), XmlError>) -> Event {
        match attr {
            Ok((key, value)) => {
                let borrowed = matches!(value, Cow::Borrowed(_));
                Event::Attr(key.to_owned(), value.into_owned(), borrowed)
            }
            Err(e) => Event::Error(e),
        }
    }
}

/// Every [`Event`] of a scan of `$xml` in order: each tag, then each of
/// its attributes, with every error where it happens; the scan goes on
/// past an error as far as the scanner does. `Tags` and `Tag` are the
/// scanner's where this is used.
#[cfg(test)]
macro_rules! events {
    ($xml:expr) => {{
        let mut out = Vec::new();
        for tag in Tags::new($xml) {
            let attrs = match tag {
                Ok(Tag::Open(name, attrs)) => Some(("open", name, attrs)),
                Ok(Tag::SelfClose(name, attrs)) => Some(("self-close", name, attrs)),
                Ok(Tag::Close(name)) => {
                    out.push(Event::Tag("close", name.to_owned()));
                    None
                }
                Err(e) => {
                    out.push(Event::Error(e));
                    None
                }
            };
            if let Some((kind, name, attrs)) = attrs {
                out.push(Event::Tag(kind, name.to_owned()));
                out.extend(attrs.map(Event::attr));
            }
        }
        out
    }};
}

/// The scanner as it was before the word-at-a-time search, every
/// search, trim and split a `str` method: the oracle the scanner is
/// tested against.
#[cfg(test)]
mod oracle {
    use super::{fail, is_name, unescape, Event, XmlError};
    use std::borrow::Cow;

    enum Tag<'a> {
        Open(&'a str, Attrs<'a>),
        SelfClose(&'a str, Attrs<'a>),
        Close(&'a str),
    }

    struct Tags<'a> {
        xml: &'a str,
        pos: usize,
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
                let (name, rest) =
                    body.split_at(body.find(char::is_whitespace).unwrap_or(body.len()));
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

    struct Attrs<'a> {
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

    impl<'a> Tags<'a> {
        fn new(xml: &'a str) -> Tags<'a> {
            Tags { xml, pos: 0 }
        }
    }

    pub(super) fn events(xml: &str) -> Vec<Event> {
        events!(xml)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

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

    fn events(xml: &str) -> Vec<Event> {
        events!(xml)
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

    /// Every needle position in 0..40, alone or with a second needle
    /// after it, searched from the start and from a few bytes in, among
    /// filler bytes that could fool the word test: the zero and high-bit
    /// edges, and the needle's neighbours, which the borrow out of a
    /// real match can flag.
    #[test]
    fn word_search_equals_position() {
        let position = |hay: &[u8], from: usize, hit: &dyn Fn(&u8) -> bool| {
            hay.iter().skip(from).position(hit).map(|i| from + i)
        };
        for needle in [b'<', b'>', b'=', b'"', b'&'] {
            let either = |b: &u8| *b == needle || *b == b'\'';
            for filler in [
                0x00,
                0x01,
                0x7F,
                0x80,
                0xFF,
                needle ^ 1,
                needle - 1,
                needle + 1,
            ] {
                for len in 0..40 {
                    // A needle at `first` and at `second`; `len` is none.
                    for first in 0..=len {
                        for second in first..=len {
                            let mut hay = vec![filler; len];
                            for at in [first, second] {
                                if let Some(b) = hay.get_mut(at) {
                                    *b = needle;
                                }
                            }
                            for from in [0, 1, 7] {
                                let want = position(&hay, from, &|b| *b == needle);
                                assert_eq!(find_any(&hay, from, [needle]), want, "{hay:?}");
                                let want = position(&hay, from, &either);
                                assert_eq!(find_any(&hay, from, [b'\'', needle]), want, "{hay:?}");
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn non_ascii_space_keeps_the_str_rules() {
        for xml in [
            "<A\u{a0}B=\"x\">",                           // U+00A0 ends a tag name
            "<A\u{b}B=\"x\">",                            // and so does U+000B
            "<A B\u{2003}= \u{a0}\"x\"\u{3000}C=\"y\"/>", // trimmed round `=`
            "<A B\u{b}\u{b}=\"x\"/>",                     // U+000B trimmed off a key
            "<A Bé\u{b}C=\"x\"/>",                        // but kept inside one
            "</\u{2003}A\u{85}>",                         // trimmed off a closing name
            "<\u{a0}A/>",
            "<A\u{a0}/>",
            "<é\u{2003}é=\"x\"/>",
        ] {
            assert_eq!(events(xml), oracle::events(xml), "{xml:?}");
        }
        assert_eq!(
            events("<A B\u{b}\u{b}=\"x\"/>"),
            [
                Event::Tag("self-close", "A".into()),
                Event::Attr("B".into(), "x".into(), true),
            ]
        );
    }

    /// Pieces of tag soup: every delimiter, entities whole and broken,
    /// ASCII and Unicode white space, multi-byte text, and whole tags.
    const SOUP: [&str; 40] = [
        "<",
        ">",
        "/",
        "=",
        "\"",
        "'",
        "?",
        "!",
        "&",
        "&amp;",
        "&lt;",
        "&quot;",
        "&am",
        " ",
        "\t",
        "\n",
        "\r",
        "\u{b}",
        "\u{c}",
        "\u{a0}",
        "\u{2003}",
        "\u{85}",
        "\u{3000}",
        "é",
        "日本",
        "\u{1F600}",
        "\u{7f}",
        "\0",
        "A",
        "HOST",
        "NAME",
        "VAL",
        "0.75",
        "<HOST NAME=\"a\" IP=\"1\">",
        "</HOST>",
        "<METRIC NAME=\"load_one\" VAL=\"0.5\"/>",
        "<?xml version=\"1.0\"?>",
        "<!-- c -->",
        " NAME=\"",
        "=\"",
    ];

    /// Up to 40 pieces of soup, cut short at a character half the time.
    fn soup() -> impl Strategy<Value = String> {
        let pieces = prop::collection::vec(prop::sample::select(SOUP.to_vec()), 0..40);
        (pieces, any::<usize>(), any::<bool>()).prop_map(|(pieces, cut, truncate)| {
            let mut doc = pieces.concat();
            if truncate {
                let mut at = cut % (doc.len() + 1);
                while !doc.is_char_boundary(at) {
                    at -= 1;
                }
                doc.truncate(at);
            }
            doc
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(10_000))]

        /// The scanner reads tag soup exactly as its oracle does: the
        /// same tags, attributes, values, errors and offsets.
        #[test]
        fn scanner_equals_its_oracle(doc in soup()) {
            prop_assert_eq!(events(&doc), oracle::events(&doc), "{:?}", doc);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2_000_000))]

        /// [`scanner_equals_its_oracle`] at length, run nightly.
        #[test]
        #[ignore = "long: cargo test --release -p gridrm-drivers -- --ignored"]
        fn scanner_equals_its_oracle_at_length(doc in soup()) {
            prop_assert_eq!(events(&doc), oracle::events(&doc), "{:?}", doc);
        }
    }
}
