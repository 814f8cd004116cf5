//! One authorisation point, end to end (DESIGN.md guarantee (xi)): a row
//! reaches a client only if the fine check allows its source URL and
//! GLUE group, and an operation runs only if the coarse check allows
//! it, whatever the surface — realtime, a cache hit, a historical scan
//! (rows and aggregates), a subscription and its first poll, a late
//! joiner's snapshot, a coalesced single-flight follower and a two-site
//! fan-out. Each leak that the single point closed keeps its repro here.

use gridrm::core::security::AclRule;
use gridrm::core::{CoarseOperation, SessionToken};
use gridrm::dbc::{
    ColumnMeta, Connection, DbcResult, Driver, DriverMetaData, Properties, ResultSet,
    ResultSetMetaData, Statement,
};
use gridrm::prelude::*;
use gridrm::simnet::XorShift;
use gridrm::sqlparse::SqlType;
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread;

const ALPHA: [&str; 2] = [
    "jdbc:snmp://node00.alpha/public",
    "jdbc:snmp://node01.alpha/public",
];
const BETA: &str = "jdbc:snmp://node00.beta/public";
/// Answered by [`SlowDriver`], which holds every fetch until released.
const SLOW: &str = "jdbc:block://node00.alpha/x";
const GROUPS: [&str; 2] = ["Processor", "MainMemory"];
const HISTORY_ROWS: &str = "SELECT source, grp, attr FROM history";

fn select(group: &str) -> String {
    format!("SELECT Hostname FROM {group}")
}

/// `monitor` may read `Processor` on any SNMP source, and nothing else
/// is granted: the setup every leak below was found with.
fn processor_only() -> SecurityPolicy {
    SecurityPolicy::strict().with_rule(AclRule {
        role: "monitor".into(),
        url_prefix: "jdbc:snmp://".into(),
        group: "Processor".into(),
        allow: true,
    })
}

fn alice() -> Identity {
    Identity::new("alice", &["monitor"])
}

/// The `Hostname` cells of an answer, sorted; an error answers nothing.
fn hosts(answer: DbcResult<ClientResponse>) -> Vec<String> {
    answer.map_or_else(|_| Vec::new(), |r| hostnames(&r.rows))
}

fn hostnames(rows: &RowSet) -> Vec<String> {
    let mut out: Vec<String> = rows.rows().iter().map(|r| r[0].to_string()).collect();
    out.sort();
    out
}

/// Every row of every delta a subscription has buffered.
fn polled(gateway: &Gateway, id: SubscriptionId) -> Vec<String> {
    let deltas = gateway.poll_deltas(id, 0).unwrap();
    let mut out: Vec<String> = deltas.iter().flat_map(|d| hostnames(&d.rows)).collect();
    out.sort();
    out
}

fn subscription(sql: &str, sources: &[&str]) -> QueryBuilder {
    ClientRequest::builder(&format!("{sql} EVERY 60000")).sources(sources)
}

/// A one-way gate the slow driver's fetches wait at.
#[derive(Default)]
struct Gate {
    open: Mutex<bool>,
    cv: Condvar,
    entered: AtomicUsize,
}

impl Gate {
    fn set(&self, open: bool) {
        *self.open.lock().unwrap() = open;
        self.cv.notify_all();
    }

    fn wait(&self) {
        self.entered.fetch_add(1, Ordering::SeqCst);
        let mut open = self.open.lock().unwrap();
        while !*open {
            open = self.cv.wait(open).unwrap();
        }
    }
}

struct SlowDriver(Arc<Gate>);
struct SlowConnection(JdbcUrl, Arc<Gate>);
struct SlowStatement(Arc<Gate>);

impl Driver for SlowDriver {
    fn meta(&self) -> DriverMetaData {
        DriverMetaData {
            name: "jdbc-block".to_owned(),
            subprotocol: "block".to_owned(),
            version: (0, 1),
            description: "answers one row once its gate opens".to_owned(),
        }
    }
    fn accepts_url(&self, url: &JdbcUrl) -> bool {
        url.subprotocol == "block"
    }
    fn connect(&self, url: &JdbcUrl, _props: &Properties) -> DbcResult<Box<dyn Connection>> {
        Ok(Box::new(SlowConnection(url.clone(), self.0.clone())))
    }
}

impl Connection for SlowConnection {
    fn create_statement(&mut self) -> DbcResult<Box<dyn Statement>> {
        Ok(Box::new(SlowStatement(self.1.clone())))
    }
    fn url(&self) -> &JdbcUrl {
        &self.0
    }
    fn is_closed(&self) -> bool {
        false
    }
    fn close(&mut self) -> DbcResult<()> {
        Ok(())
    }
}

impl Statement for SlowStatement {
    fn execute_query(&mut self, _sql: &str) -> DbcResult<Box<dyn ResultSet>> {
        self.0.wait();
        let meta = ResultSetMetaData::new(vec![ColumnMeta::new("Hostname", SqlType::Str)]);
        Ok(Box::new(RowSet::new(
            meta,
            vec![vec![SqlValue::Str("slow-node".into())]],
        )?))
    }
}

/// Two sites behind one directory. Alpha's history holds every attribute
/// of both groups of both its hosts plus one event, its cache holds every realtime
/// answer, and it records no more history, so the permissive answers
/// below stay the answers to filter.
struct World {
    net: Arc<Network>,
    alpha: Arc<Gateway>,
    beta: Arc<Gateway>,
    layer: Arc<GlobalLayer>,
    /// Beta's layer serves its `:gma` endpoint for as long as it lives.
    _beta_layer: Arc<GlobalLayer>,
    gate: Arc<Gate>,
    /// `(source, group, hostname)` of every realtime row, both sites.
    live: Vec<(String, String, String)>,
    /// `(source, grp, attr)` of every row of alpha's `history`.
    history: Vec<(String, String, String)>,
    /// `source` of every row of alpha's `events`.
    events: Vec<String>,
}

fn world() -> World {
    let net = Network::new(SimClock::new(), 59);
    let directory = GmaDirectory::new();
    let mut sites = Vec::new();
    for (i, name) in ["alpha", "beta"].iter().enumerate() {
        let model = SiteModel::generate(590 + i as u64, &SiteSpec::new(name, 2, 2));
        model.advance_to(120_000);
        deploy_site(&net, model);
        let gateway = Gateway::new(GatewayConfig::new(&format!("gw-{name}"), name), net.clone());
        install_into_gateway(&gateway);
        let layer = GlobalLayer::attach(gateway.clone(), directory.clone());
        sites.push((gateway, layer));
    }
    let (beta, beta_layer) = sites.pop().unwrap();
    let (alpha, layer) = sites.pop().unwrap();
    let gate = Arc::new(Gate::default());
    (alpha.driver_manager()).register(Arc::new(SlowDriver(gate.clone())));

    let mut live = Vec::new();
    for group in GROUPS {
        for (gateway, source) in [(&alpha, ALPHA[0]), (&alpha, ALPHA[1]), (&beta, BETA)] {
            let every = ClientRequest::realtime(source, &format!("SELECT * FROM {group}"));
            gateway.query(&every).unwrap();
            let rows = gateway
                .query(&ClientRequest::realtime(source, &select(group)))
                .unwrap()
                .rows;
            for host in hostnames(&rows) {
                live.push((source.to_owned(), group.to_owned(), host));
            }
        }
    }
    alpha.events().ingest(GridRMEvent {
        id: 0,
        at_ms: 0,
        source: ALPHA[0].to_owned(),
        hostname: Some("node00.alpha".into()),
        severity: Severity::Warning,
        category: "cpu.load".into(),
        message: "load".into(),
        value: Some(1.0),
    });
    alpha.pump();
    alpha.request_manager().set_record_history(false);
    let text = |v: &SqlValue| v.to_string();
    let history = (alpha
        .query(&ClientRequest::historical(HISTORY_ROWS))
        .unwrap()
        .rows)
        .rows()
        .iter()
        .map(|r| (text(&r[0]), text(&r[1]), text(&r[2])))
        .collect();
    let events = (alpha.query(&ClientRequest::historical("SELECT source FROM events")))
        .unwrap()
        .rows
        .rows()
        .iter()
        .map(|r| text(&r[0]))
        .collect();
    World {
        net,
        alpha,
        beta,
        layer,
        _beta_layer: beta_layer,
        gate,
        live,
        history,
        events,
    }
}

/// The oracle: §2's rules, written out here rather than asked of the
/// policy. Deferred prefixes first, then the first matching rule, then
/// the default.
fn may(policy: &SecurityPolicy, who: &Identity, url: &str, group: &str) -> bool {
    if policy.deferred_prefixes.iter().any(|p| url.starts_with(p)) {
        return false;
    }
    for rule in &policy.rules {
        if (rule.role == "*" || who.roles.contains(&rule.role))
            && url.starts_with(&rule.url_prefix)
            && (rule.group == "*" || rule.group.eq_ignore_ascii_case(group))
        {
            return rule.allow;
        }
    }
    policy.default_allow
}

fn holds(policy: &SecurityPolicy, who: &Identity, op: CoarseOperation) -> bool {
    (policy.coarse.iter())
        .filter(|(o, _)| *o == op)
        .all(|(_, role)| who.roles.contains(role))
}

fn pick<'a>(rng: &mut XorShift, from: &[&'a str]) -> &'a str {
    from[rng.next_below(from.len() as u64) as usize]
}

fn random_policy(rng: &mut XorShift) -> SecurityPolicy {
    let mut policy = SecurityPolicy::permissive();
    for op in [
        CoarseOperation::Query,
        CoarseOperation::QueryHistory,
        CoarseOperation::Subscribe,
    ] {
        match rng.next_below(4) {
            0 => policy = policy.require(op, "monitor"),
            1 => policy = policy.require(op, "ops"),
            _ => {}
        }
    }
    for _ in 0..rng.next_below(4) {
        policy = policy.with_rule(AclRule {
            role: pick(rng, &["*", "monitor", "ops"]).into(),
            url_prefix: pick(
                rng,
                &[
                    "",
                    "jdbc:snmp://node00",
                    "jdbc:snmp://node01.alpha",
                    "jdbc:snmp://node00.beta",
                    "jdbc:block://",
                ],
            )
            .into(),
            group: pick(rng, &["*", "Processor", "mainmemory", "events"]).into(),
            allow: rng.chance(0.6),
        });
    }
    policy.default_allow = rng.chance(0.5);
    if rng.chance(0.2) {
        let prefix = pick(rng, &["jdbc:snmp://node01", "jdbc:snmp://node00.beta"]);
        policy.deferred_prefixes.push(prefix.into());
    }
    policy
}

fn random_identity(rng: &mut XorShift) -> Identity {
    let roles: Vec<&str> = ["monitor", "ops"]
        .into_iter()
        .filter(|_| rng.chance(0.5))
        .collect();
    Identity::new(pick(rng, &["alice", "bob"]), &roles)
}

/// A principal as a request presents it: a session token or the
/// identity itself.
#[derive(Clone)]
enum As {
    Token(SessionToken),
    Named(Identity),
}

impl As {
    fn on(&self, builder: QueryBuilder) -> ClientRequest {
        match self {
            As::Token(token) => builder.token(*token),
            As::Named(who) => builder.identity(who.clone()),
        }
        .build()
    }
}

/// The permissive realtime rows of `group` on `sources`, filtered as
/// `who` may read them.
fn expected_live(w: &World, who: &Identity, group: &str, sources: &[&str]) -> Vec<String> {
    let (alpha, beta) = (w.alpha.policy(), w.beta.policy());
    let mut out: Vec<String> = (w.live.iter())
        .filter(|(source, grp, _)| grp == group && sources.contains(&source.as_str()))
        .filter(|(source, grp, _)| {
            // The gateway the client asks checks `Query` at its entry,
            // and the owner checks it again with its fine rules.
            let policy = if source == BETA { &beta } else { &alpha };
            holds(&alpha, who, CoarseOperation::Query)
                && holds(policy, who, CoarseOperation::Query)
                && may(policy, who, source, grp)
        })
        .map(|(_, _, host)| host.clone())
        .collect();
    out.sort();
    out
}

/// One coalesced single-flight follower: a leader holding every role
/// fetches `SLOW` and is held at the gate; the follower's answer is
/// returned once it has joined the flight (or been refused before it).
fn coalesced_follower(w: &World, follower: ClientRequest) -> Vec<String> {
    let sql = "SELECT Hostname FROM Processor";
    let root = Identity::new("root", &["monitor", "ops"]);
    w.gate.set(false);
    let entered = w.gate.entered.load(Ordering::SeqCst);
    let run = |request: ClientRequest| {
        let gateway = w.alpha.clone();
        thread::spawn(move || gateway.query(&request))
    };
    let leader = run(ClientRequest::realtime(SLOW, sql).with_identity(root));
    while w.gate.entered.load(Ordering::SeqCst) == entered && !leader.is_finished() {
        thread::yield_now();
    }
    let in_flight = !leader.is_finished();
    let follower = run(follower);
    while in_flight
        && w.alpha.request_manager().inflight_waiters(SLOW, sql) == 0
        && !follower.is_finished()
    {
        thread::yield_now();
    }
    w.gate.set(true);
    leader.join().unwrap().ok();
    let answer = follower.join().unwrap();
    if in_flight {
        if let Ok(resp) = &answer {
            assert_eq!(resp.outcomes[0].status, OutcomeStatus::Coalesced);
        }
    }
    hosts(answer)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// G(xi): under a random policy on each site, a random principal
    /// (by token or by identity) gets exactly the permissive answer
    /// filtered by the oracle, on every surface that returns a row.
    #[test]
    fn g11_every_surface_answers_what_the_fine_check_allows_per_row_read(seed in any::<u64>()) {
        static WORLD: OnceLock<World> = OnceLock::new();
        let w = WORLD.get_or_init(world);
        let mut rng = XorShift::new(seed);
        let (policy, beta_policy) = (random_policy(&mut rng), random_policy(&mut rng));
        w.alpha.set_security_policy(policy.clone());
        w.beta.set_security_policy(beta_policy);
        let who = random_identity(&mut rng);
        let token = w.alpha.login(who.clone());
        let by = if rng.chance(0.5) { As::Token(token) } else { As::Named(who.clone()) };
        let group = pick(&mut rng, &GROUPS);
        let sql = select(group);
        let expected = expected_live(w, &who, group, &ALPHA);
        let context = format!("seed {seed}, {who:?} on {group} under {policy:?}");

        // Realtime, then the same text served from the cache.
        let realtime = hosts(w.alpha.query(&by.on(ClientRequest::builder(&sql).sources(&ALPHA))));
        prop_assert_eq!(&realtime, &expected, "realtime: {}", context);
        let cached = by.on(ClientRequest::builder(&sql).sources(&ALPHA).mode(QueryMode::Cached { max_age_ms: Some(1 << 40) }));
        let cached = w.alpha.query(&cached);
        if let Ok(resp) = &cached {
            prop_assert!(resp.outcomes.iter().all(|o| !o.status.is_success()
                || o.status == OutcomeStatus::Cached), "not a hit: {:?}", resp.outcomes);
        }
        prop_assert_eq!(&hosts(cached), &expected, "cache hit: {}", context);

        // Historical: the rows, an aggregate, a grouped aggregate, events.
        let history = holds(&policy, &who, CoarseOperation::QueryHistory);
        let readable: Vec<&(String, String, String)> = (w.history.iter())
            .filter(|(source, grp, _)| history && may(&policy, &who, source, grp))
            .collect();
        let rows = w.alpha.query(&by.on(ClientRequest::builder(HISTORY_ROWS).mode(QueryMode::Historical)));
        let mut got: Vec<(String, String, String)> = rows.map_or_else(|_| Vec::new(), |r| {
            r.rows.rows().iter()
                .map(|c| (c[0].to_string(), c[1].to_string(), c[2].to_string()))
                .collect()
        });
        got.sort();
        let mut want: Vec<(String, String, String)> = readable.iter().map(|r| (*r).clone()).collect();
        want.sort();
        prop_assert_eq!(got, want, "history rows: {}", context);
        let count = w.alpha.query(&by.on(
            ClientRequest::builder("SELECT COUNT(*) FROM history").mode(QueryMode::Historical),
        ));
        let count = count.ok().map(|r| r.rows.rows()[0][0].clone());
        let want_count = history.then_some(SqlValue::Int(readable.len() as i64));
        prop_assert_eq!(count, want_count, "COUNT(*): {}", context);
        let grouped = w.alpha.query(&by.on(
            ClientRequest::builder("SELECT grp, COUNT(*) FROM history GROUP BY grp").mode(QueryMode::Historical),
        ));
        let grouped: BTreeMap<String, SqlValue> = grouped.map_or_else(|_| BTreeMap::new(), |r| {
            r.rows.rows().iter().map(|c| (c[0].to_string(), c[1].clone())).collect()
        });
        let mut want_grouped: BTreeMap<String, SqlValue> = BTreeMap::new();
        for (_, grp, _) in &readable {
            let n = want_grouped.entry(grp.clone()).or_insert(SqlValue::Int(0));
            *n = SqlValue::Int(n.as_i64().unwrap() + 1);
        }
        prop_assert_eq!(grouped, want_grouped, "GROUP BY grp: {}", context);
        let events = w.alpha.query(&by.on(ClientRequest::builder("SELECT source FROM events").mode(QueryMode::Historical)));
        let events = events.map_or(0, |r| r.rows.len());
        let want_events = (w.events.iter())
            .filter(|source| history && may(&policy, &who, source, "events"))
            .count();
        prop_assert_eq!(events, want_events, "events rows: {}", context);

        // A subscription's first poll, a late joiner of the same
        // principal, and a joiner of another.
        let subscribed = holds(&policy, &who, CoarseOperation::Subscribe);
        let want = if subscribed { expected.clone() } else { Vec::new() };
        let spec = |request| SubscribeSpec::new(request);
        let first = w.alpha.subscribe(&spec(by.on(subscription(&sql, &ALPHA))));
        let got = first.as_ref().map_or_else(|_| Vec::new(), |id| polled(&w.alpha, *id));
        prop_assert_eq!(&got, &want, "subscription: {}", context);
        let joiner = w.alpha.subscribe(&spec(by.on(subscription(&sql, &ALPHA))));
        let got = joiner.as_ref().map_or_else(|_| Vec::new(), |id| polled(&w.alpha, *id));
        prop_assert_eq!(&got, &want, "late joiner: {}", context);
        if first.is_ok() {
            prop_assert_eq!(w.alpha.streams().standing_query_count(), 1, "one principal, one evaluation");
        }
        let other = random_identity(&mut rng);
        let other_sub = w.alpha.subscribe(&spec(As::Named(other.clone()).on(subscription(&sql, &ALPHA))));
        let got = other_sub.as_ref().map_or_else(|_| Vec::new(), |id| polled(&w.alpha, *id));
        let want = if holds(&policy, &other, CoarseOperation::Subscribe) {
            expected_live(w, &other, group, &ALPHA)
        } else {
            Vec::new()
        };
        prop_assert_eq!(&got, &want, "{:?} joining: {}", other, context);
        for id in [first, joiner, other_sub].into_iter().flatten() {
            w.alpha.cancel_subscription(id);
        }
        prop_assert_eq!(w.alpha.streams().standing_query_count(), 0);

        // A coalesced single-flight follower.
        let follower = by.on(ClientRequest::builder("SELECT Hostname FROM Processor").source(SLOW));
        let want = if holds(&policy, &who, CoarseOperation::Query)
            && may(&policy, &who, SLOW, "Processor")
        {
            vec!["slow-node".to_owned()]
        } else {
            Vec::new()
        };
        prop_assert_eq!(coalesced_follower(w, follower), want, "coalesced follower: {}", context);

        // A two-site fan-out with the token: each owner applies its own
        // policy to the identity the token resolves to.
        let grid = ClientRequest::builder(&sql).sources(&[ALPHA[0], BETA]).token(token).build();
        let got = hosts(w.layer.query(&grid));
        prop_assert_eq!(got, expected_live(w, &who, group, &[ALPHA[0], BETA]), "fan-out: {}", context);
        w.alpha.sessions().close(token);
    }
}

/// Bug 1: a historical query read every group the store held. Alice may
/// read only `Processor`; her history rows, her `COUNT(*)` and the
/// groups she can see all say so.
#[test]
fn a_historical_scan_reads_only_rows_the_fine_check_allows() {
    let w = world();
    w.alpha.set_security_policy(processor_only());
    let token = w.alpha.login(alice());
    let historical = |sql: &str| {
        let request = ClientRequest::builder(sql)
            .mode(QueryMode::Historical)
            .token(token)
            .build();
        w.alpha.query(&request).unwrap().rows
    };
    let memory = ClientRequest::realtime(ALPHA[0], "SELECT Hostname, RAMSizeMB FROM MainMemory");
    assert!(w.alpha.query(&memory.with_token(token)).is_err());
    let ram = historical("SELECT source, grp, attr FROM history WHERE attr = 'RAMSizeMB'");
    assert_eq!(ram.len(), 0, "{ram:?}");
    let count = historical("SELECT COUNT(*) FROM history WHERE grp = 'MainMemory'");
    assert_eq!(count.rows()[0][0], SqlValue::Int(0));
    let groups = historical("SELECT DISTINCT grp FROM history");
    assert_eq!(groups.rows(), &[vec![SqlValue::Str("Processor".into())]]);
    let all = historical("SELECT COUNT(*) FROM history");
    let processor = w.history.iter().filter(|(_, grp, _)| grp == "Processor");
    assert_eq!(all.rows()[0][0], SqlValue::Int(processor.count() as i64));
    // Another store table is checked as the mount would check it.
    let events = historical("SELECT source FROM events");
    assert_eq!(events.len(), 0, "no rule grants alice `events`");
}

/// Bug 2: a role required for `Subscribe` was never asked for.
#[test]
fn a_required_subscribe_role_is_enforced() {
    let w = world();
    let policy = SecurityPolicy::permissive().require(CoarseOperation::Subscribe, "streamer");
    w.alpha.set_security_policy(policy);
    let sql = select("Processor");
    let anonymous = SubscribeSpec::new(subscription(&sql, &ALPHA).build());
    let refused = w.alpha.subscribe(&anonymous).unwrap_err();
    assert!(
        refused.to_string().contains("requires role 'streamer'"),
        "{refused}"
    );
    assert_eq!(w.alpha.streams().subscriber_count(), 0);
    let streamer = Identity::new("sam", &["streamer"]);
    let spec = SubscribeSpec::new(subscription(&sql, &ALPHA).identity(streamer).build());
    let id = w.alpha.subscribe(&spec).unwrap();
    assert_eq!(polled(&w.alpha, id).len(), 2);
}

/// Bug 5: a standing query was keyed by the request's identity name,
/// `anonymous` for every token holder, so anyone could join a token
/// holder's evaluation and read its rows. Now a joiner is admitted as
/// its own request would be, and shares only its own principal's
/// evaluation.
#[test]
fn a_late_joiner_reads_only_what_its_own_principal_may() {
    let w = world();
    let sql = "SELECT Hostname, Load1 FROM Processor";
    w.alpha.set_security_policy(processor_only());
    let token = w.alpha.login(alice());
    let owner = SubscribeSpec::new(subscription(sql, &ALPHA[..1]).token(token).build());
    let id = w.alpha.subscribe(&owner).unwrap();
    assert_eq!(polled(&w.alpha, id).len(), 1);
    let stranger = ClientRequest::realtime(ALPHA[0], sql);
    assert!(w.alpha.query(&stranger).is_err());
    let joiner = SubscribeSpec::new(subscription(sql, &ALPHA[..1]).build());
    let refused = w.alpha.subscribe(&joiner).unwrap_err();
    assert!(
        refused.to_string().contains("requires role 'monitor'"),
        "{refused}"
    );
    // The same principal still shares the evaluation.
    let again = w.alpha.subscribe(&owner).unwrap();
    assert_eq!(polled(&w.alpha, again).len(), 1, "the snapshot");
    assert_eq!(w.alpha.streams().standing_query_count(), 1);

    // Anyone may read node00 and `monitor` may read everything: an
    // anonymous joiner is admitted, but to its own evaluation.
    let mut open = SecurityPolicy::permissive()
        .with_rule(AclRule {
            role: "monitor".into(),
            url_prefix: String::new(),
            group: "*".into(),
            allow: true,
        })
        .with_rule(AclRule {
            role: "*".into(),
            url_prefix: "jdbc:snmp://node00".into(),
            group: "*".into(),
            allow: true,
        });
    open.default_allow = false;
    w.alpha.set_security_policy(open);
    let both = SubscribeSpec::new(subscription(sql, &ALPHA).token(token).build());
    let alices = w.alpha.subscribe(&both).unwrap();
    assert_eq!(polled(&w.alpha, alices), ["node00.alpha", "node01.alpha"]);
    let anonymous = SubscribeSpec::new(subscription(sql, &ALPHA).build());
    let anonymous = w.alpha.subscribe(&anonymous).unwrap();
    assert_eq!(polled(&w.alpha, anonymous), ["node00.alpha"]);
}

/// Bug 6: the fan-out shipped a token holder as `anonymous`, so a grid
/// query failed where the same local query answered; and an invalid
/// token is refused as such, before anything is sent.
#[test]
fn a_token_holders_grid_query_answers_and_a_bad_token_sends_nothing() {
    let w = world();
    w.alpha.set_security_policy(processor_only());
    w.beta.set_security_policy(processor_only());
    let token = w.alpha.login(alice());
    let sql = "SELECT Hostname FROM Processor";
    let local = ClientRequest::realtime(ALPHA[0], sql).with_token(token);
    assert_eq!(w.layer.query(&local).unwrap().rows.len(), 1);
    let remote = ClientRequest::realtime(BETA, sql).with_token(token);
    assert_eq!(hosts(w.layer.query(&remote)), ["node00.beta"]);

    let sent = || {
        w.net
            .stats_for("gw.alpha:gma", "gw.beta:gma")
            .snapshot()
            .requests
    };
    let before = sent();
    assert!(w.alpha.sessions().close(token));
    let refused = w.layer.query(&remote).unwrap_err();
    assert_eq!(
        refused,
        SqlError::Security("invalid or expired session".into())
    );
    assert_eq!(sent(), before, "nothing was sent for a bad token");
}

/// A policy swapped while requests run: every answer is the answer
/// under the old policy or under the new one, never a mix.
#[test]
fn a_policy_swap_mid_request_answers_under_one_policy_or_the_other() {
    let w = world();
    let only = |host: &str| {
        SecurityPolicy::strict().with_rule(AclRule {
            role: "monitor".into(),
            url_prefix: format!("jdbc:snmp://{host}"),
            group: "*".into(),
            allow: true,
        })
    };
    let policies = [only("node00"), only("node01")];
    w.alpha.set_security_policy(policies[0].clone());
    let request = ClientRequest::builder("SELECT Hostname FROM Processor")
        .sources(&ALPHA)
        .identity(alice())
        .build();
    let answers = [
        vec!["node00.alpha".to_owned()],
        vec!["node01.alpha".to_owned()],
    ];
    thread::scope(|scope| {
        let swapper = scope.spawn(|| {
            for i in 0..200 {
                w.alpha.set_security_policy(policies[i % 2].clone());
                thread::yield_now();
            }
        });
        let queriers: Vec<_> = (0..3)
            .map(|_| {
                scope.spawn(|| {
                    for _ in 0..40 {
                        let got = hosts(w.alpha.query(&request));
                        assert!(answers.contains(&got), "a mixed answer: {got:?}");
                    }
                })
            })
            .collect();
        swapper.join().unwrap();
        for q in queriers {
            q.join().unwrap();
        }
    });
}
