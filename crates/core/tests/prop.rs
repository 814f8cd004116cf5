//! Property tests for gateway components: Event Manager ordering and
//! loss-freedom, cache laws, session laws, alert-rule consistency,
//! queued history against the eager writer it replaced, and Fig 9's
//! tree against a model of the last real contact with each source.

use gridrm_agents::{deploy_site, SiteAgents};
use gridrm_core::alerts::{AlertEngine, AlertRule, Comparison};
use gridrm_core::cache::CacheController;
use gridrm_core::events::{EventManager, GridRMEvent, ListenerFilter, Severity};
use gridrm_core::security::Identity;
use gridrm_core::session::SessionManager;
use gridrm_core::{
    ClientRequest, DataSourceConfig, FailurePolicy, Gateway, GatewayConfig, HistoryManager,
    SourceStatus,
};
use gridrm_dbc::{ColumnMeta, ResultSetMetaData, RowSet};
use gridrm_drivers::install_into_gateway;
use gridrm_resmodel::{SiteModel, SiteSpec};
use gridrm_simnet::{Network, SimClock};
use gridrm_sqlparse::{SqlType, SqlValue};
use gridrm_store::Store;
use gridrm_telemetry::{GatewayTelemetry, Registry};
use proptest::prelude::*;
use std::sync::Arc;

/// The history writer as it was before harvests were queued, kept as the
/// oracle: at harvest time, one `Table::insert` per non-NULL cell (with
/// a NULL key stored as NULL).
fn record_rows_eagerly(store: &Store, source: &str, group: &str, rows: &RowSet, at_ms: i64) {
    let meta = rows.meta();
    let host_idx = meta
        .column_index("Hostname")
        .or_else(|_| meta.column_index("SourceHost"))
        .ok();
    store.with(|db| {
        let table = db.table_mut("history").unwrap();
        for row in rows.rows() {
            let hostname = match host_idx.and_then(|i| row.get(i)) {
                None => SqlValue::Str(String::new()),
                Some(SqlValue::Null) => SqlValue::Null,
                Some(v) => SqlValue::Str(v.to_string()),
            };
            for (i, value) in row.iter().enumerate() {
                if value.is_null() {
                    continue;
                }
                let (num, text) = match value.as_f64() {
                    Some(x) => (SqlValue::Float(x), SqlValue::Null),
                    None => (SqlValue::Null, SqlValue::Str(value.to_string())),
                };
                let attr = meta.column_name(i).unwrap().to_owned();
                table
                    .insert(
                        &[],
                        vec![
                            SqlValue::Timestamp(at_ms),
                            SqlValue::Str(source.to_owned()),
                            SqlValue::Str(group.to_owned()),
                            hostname.clone(),
                            SqlValue::Str(attr),
                            num,
                            text,
                        ],
                    )
                    .unwrap();
            }
        }
    });
}

/// One harvested row: key, `Load1`, `NCpu`, `Model`, each possibly NULL.
type Cells = (Option<u8>, Option<f64>, Option<i64>, Option<u8>);

/// A source answer: which key column it carries (`Hostname`,
/// `SourceHost` or none), its 1–16 rows, and how many ms before "now"
/// it was harvested.
#[derive(Debug, Clone)]
struct Harvest {
    source: u8,
    key: usize,
    rows: Vec<Cells>,
    age: i64,
}

impl Harvest {
    fn rows(&self) -> Arc<RowSet> {
        let key = ["Hostname", "SourceHost", "Site"][self.key];
        let text =
            |n: Option<u8>, stem: &str| n.map_or(SqlValue::Null, |n| format!("{stem}{n}").into());
        let rows = self
            .rows
            .iter()
            .map(|&(host, load, ncpu, model)| {
                vec![
                    text(host, "node0"),
                    SqlValue::from(load),
                    ncpu.map_or(SqlValue::Null, SqlValue::Int),
                    text(model, "Xeon "),
                ]
            })
            .collect();
        let meta = ResultSetMetaData::from_pairs(&[
            (key, SqlType::Str),
            ("Load1", SqlType::Float),
            ("NCpu", SqlType::Int),
            ("Model", SqlType::Str),
        ]);
        Arc::new(RowSet::new(meta, rows).unwrap())
    }
}

fn arb_harvest() -> impl Strategy<Value = Harvest> {
    let cells = (
        prop::option::of(0u8..4),
        prop::option::of(0.0f64..8.0),
        prop::option::of(1i64..64),
        prop::option::of(0u8..3),
    );
    (
        (0u8..3, 0usize..3),
        prop::collection::vec(cells, 1..17),
        0i64..3_000,
    )
        .prop_map(|((source, key), rows, age)| Harvest {
            source,
            key,
            rows,
            age,
        })
}

/// One step of a history workload.
#[derive(Debug, Clone)]
enum HistoryOp {
    Harvest(Harvest),
    /// The virtual clock moves on (possibly by 0 ms).
    Advance(i64),
    /// A pump whose retention keeps the last `keep` ms.
    Pump {
        keep: i64,
    },
    /// An event recorded now.
    Event,
    /// One of [`HISTORY_SELECTS`], now.
    Select(usize),
}

const HISTORY_SELECTS: [&str; 5] = [
    "SELECT * FROM history",
    "SELECT COUNT(*) FROM history WHERE hostname IS NULL",
    "SELECT hostname, attr, num, text FROM history WHERE at >= NOW() - 500 ORDER BY at DESC, attr",
    "SELECT source, grp, COUNT(*) AS n FROM history GROUP BY source, grp ORDER BY source, grp",
    "SELECT * FROM events",
];

fn arb_history_op() -> impl Strategy<Value = HistoryOp> {
    prop_oneof![
        arb_harvest().prop_map(HistoryOp::Harvest),
        (0i64..1_500).prop_map(HistoryOp::Advance),
        (0i64..4_000).prop_map(|keep| HistoryOp::Pump { keep }),
        Just(HistoryOp::Event),
        (0usize..HISTORY_SELECTS.len()).prop_map(HistoryOp::Select),
    ]
}

/// The same workload against the queued writer and the eager oracle.
struct HistoryPair {
    queued: HistoryManager,
    eager: HistoryManager,
    now: i64,
    events: u64,
}

impl HistoryPair {
    fn new() -> HistoryPair {
        let manager =
            || HistoryManager::new(Store::new(), &GatewayTelemetry::new(SimClock::new())).unwrap();
        HistoryPair {
            queued: manager(),
            eager: manager(),
            now: 10_000,
            events: 0,
        }
    }

    fn apply(&mut self, op: &HistoryOp) {
        match op {
            HistoryOp::Harvest(h) => {
                let source = format!("jdbc:snmp://node0{}/public", h.source);
                let group = ["Processor", "MainMemory"][h.key % 2];
                let rows = h.rows();
                let at = self.now - h.age;
                self.queued
                    .record_rows(&source, group, Arc::clone(&rows), at);
                record_rows_eagerly(self.eager.store(), &source, group, &rows, at);
            }
            HistoryOp::Advance(ms) => self.now += ms,
            HistoryOp::Pump { keep } => {
                self.queued.flush();
                let cutoff = self.now - keep;
                assert_eq!(
                    self.queued.retain_since(cutoff).unwrap(),
                    self.eager.retain_since(cutoff).unwrap(),
                    "retention at {cutoff}"
                );
            }
            HistoryOp::Event => {
                self.events += 1;
                let event = GridRMEvent {
                    id: self.events,
                    at_ms: self.now,
                    source: "prop:snmp".into(),
                    hostname: None,
                    severity: Severity::Info,
                    category: "cpu.load".into(),
                    message: String::new(),
                    value: Some(1.0),
                };
                self.queued.record_event(&event).unwrap();
                self.eager.record_event(&event).unwrap();
            }
            HistoryOp::Select(i) => {
                let sql = HISTORY_SELECTS[*i];
                let statement = gridrm_sqlparse::parse(sql).unwrap();
                assert_eq!(
                    self.queued.query(&statement, self.now).unwrap(),
                    self.eager.query(&statement, self.now).unwrap(),
                    "{sql} at {}",
                    self.now
                );
                // The jdbc-gridrm mount's path: a clone of the store.
                let mount = self.queued.store().clone();
                assert_eq!(
                    mount.query(sql, self.now).unwrap(),
                    self.eager.store().query(sql, self.now).unwrap(),
                    "{sql} through the mount"
                );
            }
        }
    }
}

/// The two administered sources of the tree model, with their agents.
const TREE_SOURCES: [(&str, &str); 2] = [
    ("jdbc:snmp://node00.alpha/public", "node00.alpha:snmp"),
    ("jdbc:snmp://node01.alpha/public", "node01.alpha:snmp"),
];
const TREE_SQL: &str = "SELECT Hostname, Load1 FROM Processor";

/// One step of the tree model, on source `i` where it names one.
#[derive(Debug, Clone)]
enum TreeOp {
    /// A real-time query.
    Query(usize),
    /// The agent goes down (or comes back), then a real-time query.
    SetDown(usize, bool),
    /// SQL that never parses.
    BadSql(usize),
    /// A cached query: a hit never reaches the source.
    Cached(usize),
    /// A probe interval passes, then a pump probes both sources.
    Pump,
    /// The virtual clock moves on.
    Advance(u64),
}

fn arb_tree_op() -> impl Strategy<Value = TreeOp> {
    prop_oneof![
        (0usize..2).prop_map(TreeOp::Query),
        (0usize..2, any::<bool>()).prop_map(|(i, down)| TreeOp::SetDown(i, down)),
        (0usize..2).prop_map(TreeOp::BadSql),
        (0usize..2).prop_map(TreeOp::Cached),
        Just(TreeOp::Pump),
        (0u64..60_000).prop_map(TreeOp::Advance),
    ]
}

/// A gateway administering [`TREE_SOURCES`] under the `Report` policy,
/// and the oracle: per source, whether its agent is down, whether the
/// cache holds an answer, and whether the last real contact failed.
struct TreeModel {
    net: Arc<Network>,
    gateway: Arc<Gateway>,
    _agents: SiteAgents,
    down: [bool; 2],
    cached: [bool; 2],
    failed: [bool; 2],
}

impl TreeModel {
    fn new() -> TreeModel {
        let net = Network::new(SimClock::new(), 5);
        let site = SiteModel::generate(5, &SiteSpec::new("alpha", 2, 2));
        site.advance_to(60_000);
        let agents = deploy_site(&net, site);
        let mut config = GatewayConfig::new("gw-tree", "alpha");
        // Nothing ages out of the cache, so a cached query hits exactly
        // when a fetch of the same text has succeeded.
        config.cache_ttl_ms = 1 << 40;
        let gateway = Gateway::new(config, net.clone());
        install_into_gateway(&gateway);
        for (url, _) in TREE_SOURCES {
            let config = DataSourceConfig {
                policy: Some(FailurePolicy::Report),
                ..DataSourceConfig::dynamic(url, url)
            };
            gateway.admin().add_source(config).unwrap();
        }
        TreeModel {
            net,
            gateway,
            _agents: agents,
            down: [false; 2],
            cached: [false; 2],
            failed: [false; 2],
        }
    }

    /// A driver attempt on source `i`; a good one fills the cache.
    fn fetch(&mut self, i: usize) {
        let _ = self
            .gateway
            .query(&ClientRequest::realtime(TREE_SOURCES[i].0, TREE_SQL));
        self.failed[i] = self.down[i];
        self.cached[i] |= !self.down[i];
    }

    fn apply(&mut self, op: &TreeOp) {
        match *op {
            TreeOp::Query(i) => self.fetch(i),
            TreeOp::SetDown(i, down) => {
                self.net.set_down(TREE_SOURCES[i].1, down);
                self.down[i] = down;
                self.fetch(i);
            }
            TreeOp::BadSql(i) => {
                let request = ClientRequest::realtime(TREE_SOURCES[i].0, "SELEC nonsense");
                assert!(self.gateway.query(&request).is_err());
            }
            TreeOp::Cached(i) => {
                if self.cached[i] {
                    let request = ClientRequest::cached(TREE_SOURCES[i].0, TREE_SQL, None);
                    let resp = self.gateway.query(&request).unwrap();
                    assert_eq!(resp.served_from_cache, 1);
                } else {
                    self.fetch(i);
                }
            }
            TreeOp::Pump => {
                let interval = self.gateway.config().probe_interval_ms;
                self.gateway.clock().advance(interval);
                self.gateway.pump();
                self.failed = self.down;
            }
            TreeOp::Advance(ms) => {
                self.gateway.clock().advance(ms);
            }
        }
    }

    /// The tree shows `PollFailed` exactly where the last real contact
    /// failed.
    fn check(&self, op: &TreeOp) {
        let tree = self
            .gateway
            .admin()
            .tree_view(self.gateway.clock().now_millis(), 60_000);
        for (i, (url, _)) in TREE_SOURCES.iter().enumerate() {
            let node = tree.iter().find(|n| n.source == *url).unwrap();
            assert_eq!(
                node.status == SourceStatus::PollFailed,
                self.failed[i],
                "after {op:?}: {node:?}"
            );
        }
    }
}

fn arb_severity() -> impl Strategy<Value = Severity> {
    prop::sample::select(vec![Severity::Info, Severity::Warning, Severity::Critical])
}

fn arb_event() -> impl Strategy<Value = GridRMEvent> {
    (
        "[a-z]{1,6}(\\.[a-z]{1,6}){0,2}",
        arb_severity(),
        prop::option::of(-1e6f64..1e6),
    )
        .prop_map(|(category, severity, value)| GridRMEvent {
            id: 0,
            at_ms: 0,
            source: "prop:snmp".into(),
            hostname: None,
            severity,
            category,
            message: String::new(),
            value,
        })
}

proptest! {
    /// Whatever the burst size and buffer capacity, dispatch returns every
    /// ingested event exactly once, in id order, and matching listeners
    /// receive exactly the matching subset.
    #[test]
    fn event_manager_loss_free_and_ordered(
        events in prop::collection::vec(arb_event(), 0..200),
        capacity in 1usize..64,
        min_sev in arb_severity(),
    ) {
        let manager = EventManager::new(capacity, &GatewayTelemetry::new(SimClock::new()));
        let (_, all_rx) = manager.register_listener(ListenerFilter::default());
        let (_, sev_rx) = manager.register_listener(ListenerFilter {
            min_severity: Some(min_sev),
            ..Default::default()
        });
        for e in &events {
            manager.ingest(e.clone());
        }
        let dispatched = manager.dispatch();
        prop_assert_eq!(dispatched.len(), events.len());
        for (i, e) in dispatched.iter().enumerate() {
            prop_assert_eq!(e.id, i as u64 + 1);
            prop_assert_eq!(&e.category, &events[i].category);
        }
        prop_assert_eq!(all_rx.try_iter().count(), events.len());
        let expected_sev = events.iter().filter(|e| e.severity >= min_sev).count();
        prop_assert_eq!(sev_rx.try_iter().count(), expected_sev);
        prop_assert_eq!(manager.backlog(), 0);
    }

    /// Cache: an entry is served iff its age is within the requested
    /// bound; invalidation by source is exact.
    #[test]
    fn cache_age_law(
        stored_at in 0u64..100_000,
        now_delta in 0u64..100_000,
        max_age in 0u64..100_000,
    ) {
        let cache = CacheController::new(10_000, &Registry::new());
        let rows = Arc::new(RowSet::empty(ResultSetMetaData::new(vec![ColumnMeta::new(
            "x",
            SqlType::Int,
        )])));
        cache.store("src", "q", rows, stored_at);
        let now = stored_at + now_delta;
        let hit = cache.lookup("src", "q", now, Some(max_age)).is_some();
        prop_assert_eq!(hit, now_delta <= max_age);
    }

    /// Sessions: resolvable strictly within TTL of the last touch, never
    /// after; close is final.
    #[test]
    fn session_ttl_law(ttl in 1u64..10_000, touches in prop::collection::vec(1u64..5_000, 0..6)) {
        let m = SessionManager::new(ttl);
        let t0 = 0u64;
        let token = m.open(Identity::anonymous(), t0);
        let mut now = t0;
        let mut alive = true;
        for gap in touches {
            now += gap;
            let got = m.resolve(token, now).is_some();
            let expected = alive && gap <= ttl;
            prop_assert_eq!(got, expected, "gap {} ttl {}", gap, ttl);
            alive = got;
        }
        if alive {
            prop_assert!(m.resolve(token, now + ttl + 1).is_none());
        }
        let _ = m.close(token); // close never panics
    }

    /// Alert rules fire on exactly the rows a manual scan selects,
    /// regardless of comparison operator.
    #[test]
    fn alert_rule_exactness(
        values in prop::collection::vec(prop::option::of(-100.0f64..100.0), 0..30),
        threshold in -100.0f64..100.0,
        cmp in prop::sample::select(vec![
            Comparison::Gt,
            Comparison::Ge,
            Comparison::Lt,
            Comparison::Le,
        ]),
    ) {
        let engine = AlertEngine::new();
        engine.add_rule(AlertRule {
            name: "r".into(),
            group: "G".into(),
            attr: "V".into(),
            cmp,
            threshold,
            severity: Severity::Warning,
            category: "c".into(),
        });
        let rows: Vec<Vec<SqlValue>> = values
            .iter()
            .map(|v| vec![SqlValue::from(*v)])
            .collect();
        let rs = RowSet::new(
            ResultSetMetaData::new(vec![ColumnMeta::new("V", SqlType::Float)]),
            rows,
        )
        .unwrap();
        let fired = engine.scan("s", "G", &rs, 0).len();
        let expected = values
            .iter()
            .flatten()
            .filter(|v| match cmp {
                Comparison::Gt => **v > threshold,
                Comparison::Ge => **v >= threshold,
                Comparison::Lt => **v < threshold,
                Comparison::Le => **v <= threshold,
                Comparison::Eq => (**v - threshold).abs() < f64::EPSILON,
            })
            .count();
        prop_assert_eq!(fired, expected);
    }

    /// Queued history answers every read exactly as the eager writer
    /// did, whatever the interleaving of harvests (NULL cells and keys
    /// included), pumps, retention cutoffs, events and SELECTs. The
    /// fixed tail reads in the same virtual millisecond as a harvest,
    /// then pumps a harvest older than the retention cutoff away.
    #[test]
    fn queued_history_matches_the_eager_writer(
        ops in prop::collection::vec(arb_history_op(), 0..40),
        fresh in arb_harvest(),
        stale in arb_harvest(),
    ) {
        let mut pair = HistoryPair::new();
        let tail = [
            HistoryOp::Harvest(Harvest { age: 0, ..fresh }),
            HistoryOp::Select(0),
            HistoryOp::Harvest(Harvest { age: 5_000, ..stale }),
            HistoryOp::Pump { keep: 1_000 },
            HistoryOp::Select(0),
        ];
        for op in ops.iter().chain(&tail) {
            pair.apply(op);
        }
    }

    /// Fig 9's tree shows `PollFailed` for a source exactly when the
    /// last real contact with it (a driver attempt or a probe) failed,
    /// whatever bad SQL, cache hits and clock moves come in between.
    #[test]
    fn the_tree_shows_poll_failed_exactly_after_a_failed_contact(
        ops in prop::collection::vec(arb_tree_op(), 1..24),
    ) {
        let mut model = TreeModel::new();
        for op in &ops {
            model.apply(op);
            model.check(op);
        }
    }
}
