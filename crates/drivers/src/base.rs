//! The GridRM driver development kit (§3.2.1's "supplied as part of a
//! GridRM driver development API"). The kit carries the whole JDBC
//! surface — one [`Driver`]/[`Connection`]/[`Statement`] triple,
//! written here and nowhere else — over a small [`Source`] trait, so a
//! driver is metadata plus two hooks: a one-request `probe` and a
//! `fetch` that returns native rows. Everything around the fetch (SQL
//! parsing, Fig 5's schema consistency check, group and mapping
//! lookup, GLUE translation, `WHERE`/projection/`ORDER BY`, unit
//! metadata) is the kit's; the remaining hooks have defaults a minimal
//! driver inherits, exactly as the paper's base classes stub the
//! optional JDBC methods.

use gridrm_dbc::{
    ColumnMeta, Connection, ConnectionMetadata, DbcResult, Driver, DriverMetaData, JdbcUrl,
    Properties, ResultSet, ResultSetMetaData, RowSet, SqlError, Statement,
};
use gridrm_glue::{DriverMapping, GroupDef, NativeRow, SchemaHandle, SchemaManager, Translator};
use gridrm_simnet::{Network, SimClock};
use gridrm_sqlparse::ast::{self, BinaryOp, ColumnDef, Expr, SelectStatement};
use gridrm_sqlparse::SqlValue;
use gridrm_store::{Store, Table};
use parking_lot::{Mutex, RwLock};
use std::collections::HashMap;
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Per-driver activity counters (read by experiments E8/E9).
#[derive(Debug, Default)]
pub struct DriverStats {
    /// SQL queries executed.
    pub queries: AtomicU64,
    /// Native protocol requests sent to agents.
    pub native_requests: AtomicU64,
    /// Queries answered from a driver-internal cache.
    pub cache_hits: AtomicU64,
    /// Bytes of native payload parsed.
    pub bytes_parsed: AtomicU64,
}

impl DriverStats {
    /// Snapshot `(queries, native_requests, cache_hits, bytes_parsed)`.
    pub fn snapshot(&self) -> (u64, u64, u64, u64) {
        (
            self.queries.load(Ordering::Relaxed),
            self.native_requests.load(Ordering::Relaxed),
            self.cache_hits.load(Ordering::Relaxed),
            self.bytes_parsed.load(Ordering::Relaxed),
        )
    }

    pub(crate) fn query(&self) {
        self.queries.fetch_add(1, Ordering::Relaxed);
    }
    pub(crate) fn native(&self) {
        self.native_requests.fetch_add(1, Ordering::Relaxed);
    }
    pub(crate) fn hit(&self) {
        self.cache_hits.fetch_add(1, Ordering::Relaxed);
    }
    pub(crate) fn parsed(&self, bytes: usize) {
        self.bytes_parsed.fetch_add(bytes as u64, Ordering::Relaxed);
    }
}

/// Everything a driver needs from its hosting gateway: the network, the
/// schema manager, the virtual clock, the gateway's own network identity,
/// and any locally mounted stores (for the JDBC-GridRM driver).
pub struct DriverEnv {
    /// The (simulated) network agents live on.
    pub network: Arc<Network>,
    /// The gateway's Naming Schema Manager.
    pub schema: Arc<SchemaManager>,
    /// Shared virtual clock.
    pub clock: Arc<SimClock>,
    /// Address requests originate from (the gateway's identity).
    pub source_addr: String,
    /// Locally mounted SQL stores by name (`jdbc:gridrm://local/<name>`).
    pub stores: RwLock<HashMap<String, Store>>,
}

impl DriverEnv {
    /// Build an environment.
    pub fn new(
        network: Arc<Network>,
        schema: Arc<SchemaManager>,
        source_addr: &str,
    ) -> Arc<DriverEnv> {
        let clock = network.clock().clone();
        Arc::new(DriverEnv {
            network,
            schema,
            clock,
            source_addr: source_addr.to_owned(),
            stores: RwLock::new(HashMap::new()),
        })
    }

    /// Mount a store under a name for the JDBC-GridRM driver.
    pub fn mount_store(&self, name: &str, store: Store) {
        self.stores.write().insert(name.to_owned(), store);
    }

    /// Resolve a mounted store.
    pub fn store(&self, name: &str) -> Option<Store> {
        self.stores.read().get(name).cloned()
    }

    /// Send a native request to `"{host}:{proto}"` over the network,
    /// mapping network failures to [`SqlError::Connection`].
    pub fn native_request(&self, host: &str, proto: &str, payload: &[u8]) -> DbcResult<Vec<u8>> {
        self.network
            .request(&self.source_addr, &format!("{host}:{proto}"), payload)
            .map_err(|e| SqlError::Connection(e.to_string()))
    }
}

/// What every [`Source`] hook is handed: the gateway environment, the
/// driver's counters and registered name, and the URL of the data
/// source being addressed.
pub struct Target<'a> {
    /// The hosting gateway's environment.
    pub env: &'a DriverEnv,
    /// The driver's activity counters.
    pub stats: &'a DriverStats,
    /// The driver's registered name (`jdbc-snmp`, …).
    pub driver: &'a str,
    /// The data source.
    pub url: &'a JdbcUrl,
}

impl Target<'_> {
    /// Send one native request to `"{url.host}:{proto}"`, counted in
    /// [`DriverStats::native_requests`].
    pub fn request(&self, proto: &str, payload: &[u8]) -> DbcResult<Vec<u8>> {
        self.stats.native();
        self.env.native_request(&self.url.host, proto, payload)
    }

    /// The URL's `?ttl=<ms>` — how long a [`TtlCache`] may go on serving
    /// one native response — or `default_ms` when the URL has none.
    pub fn ttl_ms(&self, default_ms: u64) -> DbcResult<u64> {
        let Some(text) = self.url.param("ttl") else {
            return Ok(default_ms);
        };
        text.parse()
            .map_err(|_| SqlError::Connection(format!("bad ?ttl= '{text}': want milliseconds")))
    }
}

/// The caching "within the plug-in" §3.2.4 asks of drivers for
/// coarse-grained sources: native responses by key, each served again
/// while it is younger (on the virtual clock) than the TTL.
pub struct TtlCache<K, V> {
    entries: Mutex<HashMap<K, (u64, V)>>,
}

impl<K, V> Default for TtlCache<K, V> {
    fn default() -> Self {
        TtlCache {
            entries: Mutex::default(),
        }
    }
}

impl<K: Hash + Eq, V: Clone> TtlCache<K, V> {
    /// The response under `key` if one younger than `ttl_ms` is held
    /// (counted in [`DriverStats::cache_hits`]), else `fetch()`, kept for
    /// next time. With a TTL of 0 nothing can be served twice, so
    /// nothing is looked up or kept.
    pub fn get_or_fetch(
        &self,
        at: &Target<'_>,
        ttl_ms: u64,
        key: K,
        fetch: impl FnOnce() -> DbcResult<V>,
    ) -> DbcResult<V> {
        if ttl_ms == 0 {
            return fetch();
        }
        let now = at.env.clock.now_millis();
        if let Some((fetched_ms, value)) = self.entries.lock().get(&key) {
            if now.saturating_sub(*fetched_ms) < ttl_ms {
                at.stats.hit();
                return Ok(value.clone());
            }
        }
        let value = fetch()?;
        self.entries.lock().insert(key, (now, value.clone()));
        Ok(value)
    }
}

/// A data source, as the kit sees it. A GLUE driver writes [`meta`],
/// [`probe`] and [`fetch`] and inherits the rest; a driver that
/// publishes tables of its own (the local store, the telemetry tables)
/// writes [`query`] instead of `fetch`.
///
/// [`meta`]: Source::meta
/// [`probe`]: Source::probe
/// [`fetch`]: Source::fetch
/// [`query`]: Source::query
pub trait Source: Send + Sync + 'static {
    /// Name, URL sub-protocol, version and description.
    fn meta(&self) -> DriverMetaData;

    /// One cheap native request that succeeds iff the data source is
    /// there and speaks this driver's protocol. Decides wildcard
    /// `jdbc:://…` URLs (Table 2's "supports the URL AND can connect"),
    /// answers the gateway's active health prober, and by default
    /// verifies connectivity at connect time.
    fn probe(&self, at: &Target<'_>) -> DbcResult<()>;

    /// Connect-time verification. Override to prime a driver-level
    /// cache with the same request.
    fn open(&self, at: &Target<'_>) -> DbcResult<()> {
        self.probe(at)
    }

    /// Native rows for `group`, keyed by the native names `mapping`
    /// translates from. `sel` is there for push-down (fetch only the
    /// needed keys, turn an equality into a narrower native request);
    /// the kit re-applies the whole statement afterwards, so a fetch
    /// may always return more than was asked for.
    fn fetch(
        &self,
        _at: &Target<'_>,
        _group: &GroupDef,
        _mapping: &DriverMapping,
        _sel: &SelectStatement,
    ) -> DbcResult<Vec<NativeRow>> {
        Err(SqlError::NotImplemented("fetch"))
    }

    /// Answer a `SELECT`. The default is the GLUE path: re-validate the
    /// connection's cached schema (Fig 5: "Statement checks cache
    /// consistency before using schema instance"), resolve the group
    /// and this driver's mapping for it, [`fetch`](Source::fetch),
    /// normalise through [`glue_translate`] and apply the statement
    /// with [`finish_select`].
    fn query(
        &self,
        at: &Target<'_>,
        schema: &mut SchemaHandle,
        sel: &SelectStatement,
    ) -> DbcResult<RowSet> {
        at.env.schema.ensure_current(schema, at.driver);
        let group = schema
            .group(&sel.table)
            .ok_or_else(|| SqlError::Unsupported(format!("unknown GLUE group '{}'", sel.table)))?;
        let mapping = schema
            .mapping
            .as_deref()
            .filter(|m| m.supports_group(&group.name))
            .ok_or_else(|| {
                // A single-group driver names the one group it serves.
                let mapped: Vec<&String> = schema
                    .mapping
                    .iter()
                    .flat_map(|m| m.groups.keys())
                    .collect();
                SqlError::Unsupported(match mapped.as_slice() {
                    [only] => format!("{} only implements {only}, not '{}'", at.driver, group.name),
                    _ => format!("{} does not implement group '{}'", at.driver, group.name),
                })
            })?;
        let native_rows = self.fetch(at, group, mapping, sel)?;
        let rows = glue_translate(&Translator::new(schema), &group.name, &native_rows)?;
        finish_select(group, rows, sel, at.env.clock.now_ts())
    }

    /// Execute DDL/DML. Agent data sources are read-only.
    fn update(&self, _at: &Target<'_>, _stmt: &ast::Statement) -> DbcResult<usize> {
        Err(SqlError::NotImplemented("execute_update"))
    }
}

struct Shared<S> {
    source: S,
    meta: DriverMetaData,
    env: Arc<DriverEnv>,
    stats: DriverStats,
}

impl<S> Shared<S> {
    fn at<'a>(&'a self, url: &'a JdbcUrl) -> Target<'a> {
        Target {
            env: &self.env,
            stats: &self.stats,
            driver: &self.meta.name,
            url,
        }
    }
}

/// The kit's [`Driver`] over a [`Source`]; its connections and
/// statements share the source, so driver-level caches need no
/// self-reference.
pub struct KitDriver<S> {
    shared: Arc<Shared<S>>,
}

impl<S: Source> KitDriver<S> {
    /// Create the driver for `source` over a gateway environment.
    pub fn with_source(env: Arc<DriverEnv>, source: S) -> Arc<KitDriver<S>> {
        let shared = Arc::new(Shared {
            meta: source.meta(),
            source,
            env,
            stats: DriverStats::default(),
        });
        Arc::new(KitDriver { shared })
    }

    /// Activity counters.
    pub fn stats(&self) -> &DriverStats {
        &self.shared.stats
    }
}

impl<S: Source + Default> KitDriver<S> {
    /// Create the driver over a gateway environment.
    pub fn new(env: Arc<DriverEnv>) -> Arc<KitDriver<S>> {
        KitDriver::with_source(env, S::default())
    }
}

impl<S: Source> Driver for KitDriver<S> {
    fn meta(&self) -> DriverMetaData {
        self.shared.meta.clone()
    }

    fn accepts_url(&self, url: &JdbcUrl) -> bool {
        let s = &self.shared;
        url.subprotocol == s.meta.subprotocol
            || (url.is_wildcard() && s.source.probe(&s.at(url)).is_ok())
    }

    fn connect(&self, url: &JdbcUrl, _props: &Properties) -> DbcResult<Box<dyn Connection>> {
        let s = &self.shared;
        s.source.open(&s.at(url))?;
        // "Schema is cached when the connection is created" (Fig 5).
        let schema = s.env.schema.handle_for(&s.meta.name);
        Ok(Box::new(KitConnection {
            shared: s.clone(),
            url: url.clone(),
            schema,
            closed: false,
        }))
    }
}

struct KitConnection<S> {
    shared: Arc<Shared<S>>,
    url: JdbcUrl,
    schema: SchemaHandle,
    closed: bool,
}

impl<S: Source> Connection for KitConnection<S> {
    fn create_statement(&mut self) -> DbcResult<Box<dyn Statement>> {
        if self.closed {
            return Err(SqlError::Closed);
        }
        Ok(Box::new(KitStatement {
            shared: self.shared.clone(),
            url: self.url.clone(),
            schema: self.schema.clone(),
        }))
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

    fn ping(&mut self) -> DbcResult<()> {
        if self.closed {
            return Err(SqlError::Closed);
        }
        self.shared.source.probe(&self.shared.at(&self.url))
    }

    fn metadata(&self) -> ConnectionMetadata {
        ConnectionMetadata {
            driver_name: self.shared.meta.name.clone(),
            driver_version: self.shared.meta.version,
            url: self.url.to_string(),
            agent_description: None,
        }
    }
}

struct KitStatement<S> {
    shared: Arc<Shared<S>>,
    url: JdbcUrl,
    schema: SchemaHandle,
}

impl<S: Source> Statement for KitStatement<S> {
    fn execute_query(&mut self, sql: &str) -> DbcResult<Box<dyn ResultSet>> {
        let s = &self.shared;
        s.stats.query();
        let sel = parse_select(sql)?;
        let rs = s.source.query(&s.at(&self.url), &mut self.schema, &sel)?;
        Ok(Box::new(rs))
    }

    fn execute_update(&mut self, sql: &str) -> DbcResult<usize> {
        let s = &self.shared;
        s.stats.query();
        s.source.update(&s.at(&self.url), &parse(sql)?)
    }
}

/// The one place SQL text becomes a statement.
fn parse(sql: &str) -> DbcResult<ast::Statement> {
    Ok(gridrm_sqlparse::parse(sql)?)
}

/// Parse SQL and require a `SELECT` (`execute_query` is read-only).
fn parse_select(sql: &str) -> DbcResult<SelectStatement> {
    match parse(sql)? {
        ast::Statement::Select(sel) => Ok(sel),
        other => Err(SqlError::Unsupported(format!(
            "data-source drivers only accept SELECT, got: {other}"
        ))),
    }
}

/// The native keys behind the GLUE attributes `sel` references — what a
/// fine-grained driver actually has to fetch.
pub fn needed_keys(
    group: &GroupDef,
    mapping: &DriverMapping,
    sel: &SelectStatement,
) -> Vec<String> {
    let needed: Vec<&str> = match sel.required_columns() {
        Some(cols) => group
            .attributes
            .iter()
            .filter(|a| cols.iter().any(|c| c.eq_ignore_ascii_case(&a.name)))
            .map(|a| a.name.as_str())
            .collect(),
        None => group.attributes.iter().map(|a| a.name.as_str()).collect(),
    };
    mapping.native_keys_for(&group.name, &needed)
}

/// Find an equality constraint `column = 'literal'` anywhere in the
/// top-level AND-chain of a predicate — the push-down opportunity.
fn find_eq_literal<'e>(expr: &'e Expr, column: &str) -> Option<&'e SqlValue> {
    match expr {
        Expr::Binary {
            left,
            op: BinaryOp::Eq,
            right,
        } => match (left.as_ref(), right.as_ref()) {
            (Expr::Column { name, .. }, Expr::Literal(v))
            | (Expr::Literal(v), Expr::Column { name, .. })
                if name.eq_ignore_ascii_case(column) =>
            {
                Some(v)
            }
            _ => None,
        },
        Expr::Binary {
            left,
            op: BinaryOp::And,
            right,
        } => find_eq_literal(left, column).or_else(|| find_eq_literal(right, column)),
        _ => None,
    }
}

/// The string literal a top-level `column = '…'` conjunct of the WHERE
/// clause pins `column` to, if any.
pub fn pushed_down<'s>(sel: &'s SelectStatement, column: &str) -> Option<&'s str> {
    find_eq_literal(sel.where_clause.as_ref()?, column)?.as_str()
}

/// GLUE-translate a batch of native rows for `group`, reporting the
/// translation into the ambient trace (when the query is traced): a
/// `glue {group}` child span whose `glue_translate` stage lists the
/// group attributes this driver's mapping cannot translate at all —
/// the §3.2.3 "not possible to translate" drops — plus the NULL count
/// across the batch.
pub fn glue_translate(
    translator: &Translator<'_>,
    group: &str,
    native_rows: &[NativeRow],
) -> DbcResult<Vec<Vec<SqlValue>>> {
    let span = gridrm_telemetry::active::child_span(&format!("glue {group}"));
    let result = translator
        .translate_all(group, native_rows)
        .ok_or_else(|| SqlError::Driver("group vanished from schema".into()));
    if let Some(mut s) = span {
        match &result {
            Ok((rows, nulls)) => {
                let dropped = translator.unmapped_attributes(group);
                let detail = if dropped.is_empty() {
                    format!("dropped none; {} rows, {nulls} nulls", rows.len())
                } else {
                    format!(
                        "dropped {}; {} rows, {nulls} nulls",
                        dropped.join(","),
                        rows.len()
                    )
                };
                s.stage_with("glue_translate", &detail);
                s.finish("ok");
            }
            Err(_) => {
                s.stage_with("glue_translate", "group vanished from schema");
                s.finish("error");
            }
        }
    }
    result.map(|(rows, _nulls)| rows)
}

/// Assemble the final result set from GLUE-translated rows: builds a
/// transient table over the group's attributes and runs the full SELECT
/// semantics (`WHERE`, projection, `ORDER BY`, `LIMIT`, aggregates) via the
/// store's query engine. Column metadata carries the GLUE units.
pub fn finish_select(
    group: &GroupDef,
    rows: Vec<Vec<SqlValue>>,
    sel: &SelectStatement,
    now: i64,
) -> DbcResult<RowSet> {
    let columns: Vec<ColumnDef> = group
        .attributes
        .iter()
        .map(|a| ColumnDef {
            name: a.name.clone(),
            ty: a.ty,
            primary_key: false,
        })
        .collect();
    let table = Table {
        name: group.name.clone(),
        columns,
        rows,
    };
    let rs = gridrm_store::select_in_memory(&table, sel, now)
        .map_err(|e| SqlError::Driver(e.to_string()))?;
    // Re-decorate metadata with GLUE units where columns are plain attrs.
    let meta = ResultSetMetaData::new(
        rs.meta()
            .columns()
            .iter()
            .map(|c| {
                let mut cm = ColumnMeta::new(c.name.clone(), c.ty).with_table(group.name.clone());
                if let Some(attr) = group.attribute(&c.name) {
                    if let Some(u) = &attr.unit {
                        cm = cm.with_unit(u.clone());
                    }
                }
                cm
            })
            .collect(),
    );
    rs.with_meta(meta)
}

/// Convert an SNMP-style text number into an [`SqlValue`] guess (used by
/// the text-based drivers). Integers stay integral.
pub fn guess_value(text: &str) -> SqlValue {
    let t = text.trim();
    if let Ok(i) = t.parse::<i64>() {
        return SqlValue::Int(i);
    }
    if let Ok(f) = t.parse::<f64>() {
        return SqlValue::Float(f);
    }
    match t.to_ascii_lowercase().as_str() {
        "true" | "yes" | "up" => SqlValue::Bool(true),
        "false" | "no" | "down" => SqlValue::Bool(false),
        _ => SqlValue::Str(t.to_owned()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridrm_glue::builtin_schema;
    use gridrm_sqlparse::SqlType;

    #[test]
    fn parse_select_rejects_dml() {
        assert!(parse_select("SELECT * FROM Processor").is_ok());
        assert!(matches!(
            parse_select("DELETE FROM Processor"),
            Err(SqlError::Unsupported(_))
        ));
        assert!(matches!(parse_select("garbage"), Err(SqlError::Syntax(_))));
    }

    #[test]
    fn guess_value_types() {
        assert_eq!(guess_value("42"), SqlValue::Int(42));
        assert_eq!(guess_value("4.5"), SqlValue::Float(4.5));
        assert_eq!(guess_value("up"), SqlValue::Bool(true));
        assert_eq!(guess_value("hello"), SqlValue::Str("hello".into()));
    }

    #[test]
    fn finish_select_applies_where_and_projection() {
        let schema = builtin_schema();
        let group = schema.group("Processor").unwrap();
        let ncols = group.attributes.len();
        let mk_row = |host: &str, load: f64| {
            let mut row = vec![SqlValue::Null; ncols];
            row[group.attribute_index("Hostname").unwrap()] = SqlValue::Str(host.to_owned());
            row[group.attribute_index("Load1").unwrap()] = SqlValue::Float(load);
            row
        };
        let rows = vec![mk_row("a", 0.2), mk_row("b", 1.5), mk_row("c", 2.5)];
        let sel =
            parse_select("SELECT Hostname FROM Processor WHERE Load1 > 1.0 ORDER BY Load1 DESC")
                .unwrap();
        let rs = finish_select(group, rows, &sel, 0).unwrap();
        assert_eq!(rs.len(), 2);
        assert_eq!(rs.rows()[0][0], SqlValue::Str("c".into()));
        assert_eq!(rs.meta().column_count(), 1);
    }

    #[test]
    fn finish_select_carries_units() {
        let schema = builtin_schema();
        let group = schema.group("MainMemory").unwrap();
        let sel = parse_select("SELECT RAMSizeMB FROM MainMemory").unwrap();
        let rs = finish_select(group, Vec::new(), &sel, 0).unwrap();
        assert_eq!(rs.meta().column(0).unwrap().unit.as_deref(), Some("MB"));
        assert_eq!(rs.meta().column_type(0).unwrap(), SqlType::Int);
    }

    #[test]
    fn eq_literal_finder() {
        let w = gridrm_sqlparse::parse_expr("Category = 'cpu.load' AND Value > 1").unwrap();
        assert_eq!(
            find_eq_literal(&w, "Category"),
            Some(&SqlValue::Str("cpu.load".into()))
        );
        assert_eq!(find_eq_literal(&w, "Hostname"), None);
        // OR-chains must NOT push down (the other branch could match more).
        let w = gridrm_sqlparse::parse_expr("Category = 'a' OR Hostname = 'b'").unwrap();
        assert_eq!(find_eq_literal(&w, "Category"), None);
        // Reversed operand order still found.
        let w = gridrm_sqlparse::parse_expr("'x' = Category").unwrap();
        assert!(find_eq_literal(&w, "Category").is_some());
    }

    #[test]
    fn env_store_mounting() {
        let net = Network::new(SimClock::new(), 1);
        let env = DriverEnv::new(net, Arc::new(SchemaManager::new()), "gw");
        assert!(env.store("history").is_none());
        env.mount_store("history", Store::new());
        assert!(env.store("history").is_some());
    }
}
