//! JDBC-style URL parsing.
//!
//! GridRM addresses data sources with URLs of the form
//! `jdbc:<subprotocol>://host[:port]/path[?k=v&...]` (§3.2.2). The paper
//! explicitly allows an *empty* sub-protocol — `jdbc:://snowboard.workgroup/
//! perfdata` — meaning "use the first available driver", while
//! `jdbc:nws://snowboard.workgroup/perfdata` pins the NWS driver.

use crate::error::{DbcResult, SqlError};
use std::collections::BTreeMap;
use std::fmt;

/// A parsed JDBC-style data-source URL.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct JdbcUrl {
    /// Sub-protocol, e.g. `snmp`; empty string means "any driver" (§3.2.2).
    pub subprotocol: String,
    /// Host name of the data source.
    pub host: String,
    /// Optional explicit port.
    pub port: Option<u16>,
    /// Path component without the leading `/` (e.g. `perfdata`, a
    /// community string, a cluster name — driver-specific).
    pub path: String,
    /// Query parameters, sorted for deterministic printing.
    pub params: BTreeMap<String, String>,
}

impl JdbcUrl {
    /// Parse a URL string. Accepts `jdbc:` prefixed and bare forms.
    pub fn parse(raw: &str) -> DbcResult<JdbcUrl> {
        let rest = raw
            .strip_prefix("jdbc:")
            .ok_or_else(|| SqlError::Syntax(format!("URL must start with 'jdbc:': {raw}")))?;
        let (subprotocol, rest) = match rest.find("://") {
            Some(idx) => (&rest[..idx], &rest[idx + 3..]),
            None => {
                return Err(SqlError::Syntax(format!(
                    "URL missing '://' authority separator: {raw}"
                )))
            }
        };
        if !subprotocol
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '-' || c == '_')
        {
            return Err(SqlError::Syntax(format!(
                "invalid sub-protocol '{subprotocol}' in {raw}"
            )));
        }
        let (authority_path, query) = match rest.split_once('?') {
            Some((a, q)) => (a, Some(q)),
            None => (rest, None),
        };
        let (authority, path) = match authority_path.split_once('/') {
            Some((a, p)) => (a, p),
            None => (authority_path, ""),
        };
        if authority.is_empty() {
            return Err(SqlError::Syntax(format!("URL missing host: {raw}")));
        }
        let (host, port) = match authority.rsplit_once(':') {
            Some((h, p)) => {
                let port: u16 = p
                    .parse()
                    .map_err(|_| SqlError::Syntax(format!("invalid port '{p}' in {raw}")))?;
                (h.to_owned(), Some(port))
            }
            None => (authority.to_owned(), None),
        };
        let mut params = BTreeMap::new();
        if let Some(q) = query {
            for pair in q.split('&').filter(|s| !s.is_empty()) {
                match pair.split_once('=') {
                    Some((k, v)) => params.insert(k.to_owned(), v.to_owned()),
                    None => params.insert(pair.to_owned(), String::new()),
                };
            }
        }
        Ok(JdbcUrl {
            subprotocol: subprotocol.to_owned(),
            host,
            port,
            path: path.to_owned(),
            params,
        })
    }

    /// Construct programmatically.
    pub fn new(subprotocol: &str, host: &str, path: &str) -> JdbcUrl {
        JdbcUrl {
            subprotocol: subprotocol.to_owned(),
            host: host.to_owned(),
            port: None,
            path: path.to_owned(),
            params: BTreeMap::new(),
        }
    }

    /// Builder: set the port.
    pub fn with_port(mut self, port: u16) -> JdbcUrl {
        self.port = Some(port);
        self
    }

    /// Builder: add a query parameter.
    pub fn with_param(mut self, k: &str, v: &str) -> JdbcUrl {
        self.params.insert(k.to_owned(), v.to_owned());
        self
    }

    /// True when the URL leaves driver choice open (`jdbc:://...`, §3.2.2).
    pub fn is_wildcard(&self) -> bool {
        self.subprotocol.is_empty()
    }

    /// Canonical string form (round-trips through [`JdbcUrl::parse`]).
    pub fn canonical(&self) -> String {
        self.to_string()
    }

    /// True when `text` is exactly [`JdbcUrl::canonical`], checked
    /// without rendering it.
    pub fn is_canonical_text(&self, text: &str) -> bool {
        /// What is left of `text` after each piece written matched it.
        struct Rest<'a>(&'a str);
        impl fmt::Write for Rest<'_> {
            fn write_str(&mut self, piece: &str) -> fmt::Result {
                self.0 = self.0.strip_prefix(piece).ok_or(fmt::Error)?;
                Ok(())
            }
        }
        let mut rest = Rest(text);
        fmt::write(&mut rest, format_args!("{self}")).is_ok() && rest.0.is_empty()
    }

    /// Fetch a query parameter.
    pub fn param(&self, key: &str) -> Option<&str> {
        self.params.get(key).map(String::as_str)
    }
}

impl fmt::Display for JdbcUrl {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "jdbc:{}://{}", self.subprotocol, self.host)?;
        if let Some(p) = self.port {
            write!(f, ":{p}")?;
        }
        write!(f, "/{}", self.path)?;
        if !self.params.is_empty() {
            f.write_str("?")?;
            for (i, (k, v)) in self.params.iter().enumerate() {
                if i > 0 {
                    f.write_str("&")?;
                }
                if v.is_empty() {
                    write!(f, "{k}")?;
                } else {
                    write!(f, "{k}={v}")?;
                }
            }
        }
        Ok(())
    }
}

impl std::str::FromStr for JdbcUrl {
    type Err = SqlError;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        JdbcUrl::parse(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_paper_examples() {
        // Both URL forms from §3.2.2 of the paper.
        let any = JdbcUrl::parse("jdbc:://snowboard.workgroup/perfdata").unwrap();
        assert!(any.is_wildcard());
        assert_eq!(any.host, "snowboard.workgroup");
        assert_eq!(any.path, "perfdata");

        let nws = JdbcUrl::parse("jdbc:nws://snowboard.workgroup/perfdata").unwrap();
        assert_eq!(nws.subprotocol, "nws");
        assert!(!nws.is_wildcard());
    }

    #[test]
    fn parse_with_port_and_params() {
        let u = JdbcUrl::parse("jdbc:snmp://node01:161/public?timeout=5&retries=2").unwrap();
        assert_eq!(u.port, Some(161));
        assert_eq!(u.path, "public");
        assert_eq!(u.param("timeout"), Some("5"));
        assert_eq!(u.param("retries"), Some("2"));
        assert_eq!(u.param("missing"), None);
    }

    #[test]
    fn display_roundtrip() {
        for s in [
            "jdbc:snmp://node01:161/public?retries=2&timeout=5",
            "jdbc:://host/",
            "jdbc:ganglia://gmond.site-a/cluster0",
        ] {
            let u = JdbcUrl::parse(s).unwrap();
            assert_eq!(u.to_string(), s);
            assert_eq!(JdbcUrl::parse(&u.to_string()).unwrap(), u);
        }
    }

    #[test]
    fn rejects_bad_urls() {
        assert!(JdbcUrl::parse("snmp://host/x").is_err()); // no jdbc:
        assert!(JdbcUrl::parse("jdbc:snmp:host").is_err()); // no ://
        assert!(JdbcUrl::parse("jdbc:snmp:///x").is_err()); // empty host
        assert!(JdbcUrl::parse("jdbc:snmp://h:99999/x").is_err()); // bad port
        assert!(JdbcUrl::parse("jdbc:s p://h/x").is_err()); // bad proto
    }

    #[test]
    fn canonical_text_is_checked_without_rendering() {
        let u = JdbcUrl::parse("jdbc:snmp://node01/public?b=2&a=1").unwrap();
        assert!(u.is_canonical_text("jdbc:snmp://node01/public?a=1&b=2"));
        // The text it was parsed from orders its parameters differently.
        assert!(!u.is_canonical_text("jdbc:snmp://node01/public?b=2&a=1"));
        let bare = JdbcUrl::parse("jdbc:scms://head-node").unwrap();
        assert!(!bare.is_canonical_text("jdbc:scms://head-node"));
        assert!(bare.is_canonical_text("jdbc:scms://head-node/"));
        assert!(!bare.is_canonical_text("jdbc:scms://head-node/x"));
    }

    #[test]
    fn empty_path_allowed() {
        let u = JdbcUrl::parse("jdbc:scms://head-node/").unwrap();
        assert_eq!(u.path, "");
        let u = JdbcUrl::parse("jdbc:scms://head-node").unwrap();
        assert_eq!(u.path, "");
    }

    #[test]
    fn builder_api() {
        let u = JdbcUrl::new("snmp", "node01", "public")
            .with_port(161)
            .with_param("timeout", "5");
        assert_eq!(u.to_string(), "jdbc:snmp://node01:161/public?timeout=5");
    }

    #[test]
    fn valueless_param() {
        let u = JdbcUrl::parse("jdbc:x://h/p?flag").unwrap();
        assert_eq!(u.param("flag"), Some(""));
        assert_eq!(u.to_string(), "jdbc:x://h/p?flag");
    }
}
