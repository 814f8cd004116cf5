//! The `Connection` role: a session with a data source.

use crate::error::DbcResult;
use crate::statement::Statement;
use crate::url::JdbcUrl;

/// Descriptive metadata about an open connection, used by the gateway's
/// administration interface (§4) and the connection pool.
#[derive(Debug, Clone, PartialEq)]
pub struct ConnectionMetadata {
    /// Name of the driver that produced this connection.
    pub driver_name: String,
    /// Driver version as `(major, minor)`.
    pub driver_version: (u32, u32),
    /// The URL the connection was opened against.
    pub url: String,
    /// Free-form description of the remote agent (e.g. its sysDescr).
    pub agent_description: Option<String>,
}

/// A session with a data source (the `java.sql.Connection` role).
///
/// Per §3.2.1 a minimal driver's connection "creates a session with the data
/// source and initialises schema settings for the session" — schema metadata
/// is fetched from the SchemaManager once at connect time and cached on the
/// connection (see Fig 5: "Schema is cached when the connection is created").
pub trait Connection: Send {
    /// Create a statement for executing queries over this connection.
    fn create_statement(&mut self) -> DbcResult<Box<dyn Statement>>;

    /// The URL this connection is bound to.
    fn url(&self) -> &JdbcUrl;

    /// Has the connection been closed?
    fn is_closed(&self) -> bool;

    /// Close the session and release agent-side resources.
    fn close(&mut self) -> DbcResult<()>;

    /// One request that succeeds iff the data source still answers (the
    /// `java.sql.Connection.isValid` role). Called by the gateway's
    /// active health prober only: the pool hands connections out
    /// unvalidated, because the query's own first request is the test.
    /// The default optimistically reports healthy.
    fn ping(&mut self) -> DbcResult<()> {
        Ok(())
    }

    /// Descriptive metadata; the default synthesises it from the URL.
    fn metadata(&self) -> ConnectionMetadata {
        ConnectionMetadata {
            driver_name: "unknown".to_owned(),
            driver_version: (0, 0),
            url: self.url().to_string(),
            agent_description: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::SqlError;
    use crate::result_set::{ResultSetMetaData, RowSet};
    use crate::ResultSet;

    struct FakeConn {
        url: JdbcUrl,
        closed: bool,
    }

    impl Connection for FakeConn {
        fn create_statement(&mut self) -> DbcResult<Box<dyn Statement>> {
            if self.closed {
                return Err(SqlError::Closed);
            }
            struct S;
            impl Statement for S {
                fn execute_query(&mut self, _sql: &str) -> DbcResult<Box<dyn ResultSet>> {
                    Ok(Box::new(RowSet::empty(ResultSetMetaData::default())))
                }
            }
            Ok(Box::new(S))
        }
        fn url(&self) -> &JdbcUrl {
            &self.url
        }
        fn is_closed(&self) -> bool {
            self.closed
        }
        fn close(&mut self) -> DbcResult<()> {
            self.closed = true;
            Ok(())
        }
    }

    #[test]
    fn lifecycle() {
        let mut c = FakeConn {
            url: JdbcUrl::new("snmp", "node01", "public"),
            closed: false,
        };
        assert!(!c.is_closed());
        assert!(c.ping().is_ok());
        assert!(c.create_statement().is_ok());
        c.close().unwrap();
        assert!(c.is_closed());
        assert_eq!(c.create_statement().err(), Some(SqlError::Closed));
    }

    #[test]
    fn default_metadata_reflects_url() {
        let c = FakeConn {
            url: JdbcUrl::new("snmp", "node01", "public"),
            closed: false,
        };
        assert_eq!(c.metadata().url, "jdbc:snmp://node01/public");
    }
}
