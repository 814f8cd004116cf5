//! The SNMP agent service: GET / GETNEXT / GETBULK over the simulated
//! network, plus threshold traps pushed to a configured sink.
//!
//! A request costs what it names: over the sorted object table of
//! [`super::mib`], a GET is a binary search per named OID and GETNEXT or
//! GETBULK a `partition_point` and a walk forward, and every value in a
//! reply is read from a snapshot taken for that request.

use super::codec::{self, error_status, Pdu, SnmpMessage, SnmpValue};
use super::mib::{oids, ObjectTable};
use super::oid::Oid;
use gridrm_resmodel::{HostSnapshot, SiteModel};
use gridrm_simnet::{Network, Service};
use parking_lot::Mutex;
use std::sync::Arc;

/// An SNMP agent for one host of a site.
///
/// Register it at simnet address `"{hostname}:snmp"`. The community string
/// of incoming messages must match `community` or the agent answers with an
/// authentication error — this is the data-source end of GridRM's security
/// story (wrong credentials are indistinguishable from a broken driver,
/// which is what the failure-policy machinery must cope with).
pub struct SnmpAgent {
    site: Arc<SiteModel>,
    hostname: String,
    community: String,
    /// Trap sink (gateway address) and load threshold.
    trap_sink: Mutex<Option<(Arc<Network>, String, f64)>>,
    /// Last load value seen by the trap pump (edge-triggered traps).
    last_over: Mutex<bool>,
    /// Which OIDs the host has; empty until the first request.
    table: Mutex<ObjectTable>,
}

impl SnmpAgent {
    /// Create an agent bound to `hostname` within `site`.
    pub fn new(site: Arc<SiteModel>, hostname: &str, community: &str) -> Arc<SnmpAgent> {
        Arc::new(SnmpAgent {
            site,
            hostname: hostname.to_owned(),
            community: community.to_owned(),
            trap_sink: Mutex::new(None),
            last_over: Mutex::new(false),
            table: Mutex::default(),
        })
    }

    /// The simnet address this agent should be registered at.
    pub fn address(&self) -> String {
        format!("{}:snmp", self.hostname)
    }

    /// Configure trap emission: when the host's load1 crosses `threshold`,
    /// push a `TRAP_LOAD_HIGH` to `sink` over `network` (fire-and-forget,
    /// like UDP traps).
    pub fn set_trap_sink(&self, network: Arc<Network>, sink: &str, threshold: f64) {
        *self.trap_sink.lock() = Some((network, sink.to_owned(), threshold));
    }

    /// Poll thresholds; call from the scenario's event pump after advancing
    /// virtual time. Returns `true` if a trap was emitted.
    pub fn pump(&self) -> bool {
        let guard = self.trap_sink.lock();
        let Some((network, sink, threshold)) = guard.as_ref() else {
            return false;
        };
        let Some(snap) = self.site.host_snapshot(&self.hostname) else {
            return false;
        };
        let over = snap.load1 > *threshold;
        let mut last = self.last_over.lock();
        let fire = over && !*last;
        *last = over;
        if fire {
            let msg = SnmpMessage::v2c(
                &self.community,
                Pdu::Trap {
                    trap_oid: oids::TRAP_LOAD_HIGH.parse().expect("static OID"),
                    bindings: vec![
                        (
                            oids::SYS_NAME.parse().expect("static OID"),
                            SnmpValue::OctetString(self.hostname.clone()),
                        ),
                        (
                            format!("{}.1", oids::LA_LOAD_INT)
                                .parse()
                                .expect("static OID"),
                            SnmpValue::Integer((snap.load1 * 100.0).round() as i64),
                        ),
                    ],
                },
            );
            network.push(&self.address(), sink, codec::encode(&msg));
        }
        fire
    }

    fn respond(&self, request_id: u32, error: u8, bindings: Vec<(Oid, SnmpValue)>) -> Vec<u8> {
        codec::encode(&SnmpMessage::v2c(
            &self.community,
            Pdu::Response {
                request_id,
                error_status: error,
                bindings,
            },
        ))
    }

    /// Answer one request from the host state `snapshot` yields; it is
    /// asked only once the request has decoded and authenticated.
    fn answer(&self, request: &[u8], snapshot: impl FnOnce() -> Option<HostSnapshot>) -> Vec<u8> {
        let Ok(msg) = codec::decode(request) else {
            // Undecodable request: answer with a generic error response.
            return self.respond(0, error_status::NO_SUCH_NAME, Vec::new());
        };
        let request_id = match &msg.pdu {
            Pdu::Get { request_id, .. }
            | Pdu::GetNext { request_id, .. }
            | Pdu::GetBulk { request_id, .. } => *request_id,
            _ => 0,
        };
        if msg.community != self.community {
            return self.respond(request_id, error_status::AUTH_ERROR, Vec::new());
        }
        let Some(snap) = snapshot() else {
            return self.respond(request_id, error_status::NO_SUCH_NAME, Vec::new());
        };
        let mut table = self.table.lock();
        let mib = table.mib(&snap);
        let mut status = error_status::NO_ERROR;
        let bindings = match msg.pdu {
            Pdu::Get { oids, .. } => oids.into_iter().map(|oid| mib.get(oid)).collect(),
            Pdu::GetNext { oids, .. } => {
                let mut bindings = Vec::with_capacity(oids.len());
                for oid in &oids {
                    match mib.after(oid).next() {
                        Some(next) => bindings.push(next),
                        None => status = error_status::NO_SUCH_NAME, // end of MIB
                    }
                }
                bindings
            }
            Pdu::GetBulk {
                max_repetitions,
                oid,
                ..
            } => mib.after(&oid).take(max_repetitions as usize).collect(),
            // Agents don't accept responses or traps.
            Pdu::Response { .. } | Pdu::Trap { .. } => {
                status = error_status::NO_SUCH_NAME;
                Vec::new()
            }
        };
        self.respond(request_id, status, bindings)
    }
}

impl Service for SnmpAgent {
    fn handle(&self, _from: &str, request: &[u8]) -> Vec<u8> {
        self.answer(request, || self.site.host_snapshot(&self.hostname))
    }
}

#[cfg(test)]
mod tests {
    use super::super::mib::mib_for_host;
    use super::*;
    use gridrm_resmodel::{Host, HostSpec, OsSpec, SiteSpec};
    use gridrm_simnet::SimClock;
    use proptest::prelude::*;
    use std::collections::BTreeMap;
    use std::ops::Bound;

    fn setup() -> (Arc<Network>, Arc<SiteModel>, Arc<SnmpAgent>) {
        let clock = SimClock::new();
        let net = Network::new(clock, 1);
        let site = SiteModel::generate(42, &SiteSpec::new("t", 2, 4));
        site.advance_to(60_000);
        let agent = SnmpAgent::new(site.clone(), "node00.t", "public");
        net.register(&agent.address(), agent.clone());
        (net, site, agent)
    }

    fn ask(net: &Network, agent: &SnmpAgent, msg: SnmpMessage) -> Pdu {
        let resp = net
            .request("gw", &agent.address(), &codec::encode(&msg))
            .unwrap();
        codec::decode(&resp).unwrap().pdu
    }

    #[test]
    fn get_sysname() {
        let (net, _site, agent) = setup();
        let pdu = ask(
            &net,
            &agent,
            SnmpMessage::v2c(
                "public",
                Pdu::Get {
                    request_id: 9,
                    oids: vec![oids::SYS_NAME.parse().unwrap()],
                },
            ),
        );
        match pdu {
            Pdu::Response {
                request_id,
                error_status: 0,
                bindings,
            } => {
                assert_eq!(request_id, 9);
                assert_eq!(bindings[0].1, SnmpValue::OctetString("node00.t".to_owned()));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn get_unknown_oid_is_null() {
        let (net, _s, agent) = setup();
        let pdu = ask(
            &net,
            &agent,
            SnmpMessage::v2c(
                "public",
                Pdu::Get {
                    request_id: 1,
                    oids: vec!["9.9.9".parse().unwrap()],
                },
            ),
        );
        let Pdu::Response { bindings, .. } = pdu else {
            panic!()
        };
        assert_eq!(bindings[0].1, SnmpValue::Null);
    }

    #[test]
    fn wrong_community_rejected() {
        let (net, _s, agent) = setup();
        let pdu = ask(
            &net,
            &agent,
            SnmpMessage::v2c(
                "letmein",
                Pdu::Get {
                    request_id: 1,
                    oids: vec![oids::SYS_NAME.parse().unwrap()],
                },
            ),
        );
        let Pdu::Response { error_status, .. } = pdu else {
            panic!()
        };
        assert_eq!(error_status, error_status::AUTH_ERROR);
    }

    #[test]
    fn getnext_walks_in_order() {
        let (net, _s, agent) = setup();
        // Walk the whole MIB from the root; must terminate and visit
        // strictly ascending OIDs.
        let mut cur: Oid = "1".parse().unwrap();
        let mut visited = 0;
        loop {
            let pdu = ask(
                &net,
                &agent,
                SnmpMessage::v2c(
                    "public",
                    Pdu::GetNext {
                        request_id: visited,
                        oids: vec![cur.clone()],
                    },
                ),
            );
            let Pdu::Response {
                error_status,
                bindings,
                ..
            } = pdu
            else {
                panic!()
            };
            if error_status == error_status::NO_SUCH_NAME {
                break;
            }
            let (next, _) = bindings.into_iter().next().unwrap();
            assert!(next > cur, "GETNEXT went backwards");
            cur = next;
            visited += 1;
            assert!(visited < 1000, "walk did not terminate");
        }
        assert!(visited > 25, "only {visited} objects walked");
    }

    #[test]
    fn getbulk_caps_repetitions() {
        let (net, _s, agent) = setup();
        let pdu = ask(
            &net,
            &agent,
            SnmpMessage::v2c(
                "public",
                Pdu::GetBulk {
                    request_id: 1,
                    max_repetitions: 5,
                    oid: "1".parse().unwrap(),
                },
            ),
        );
        let Pdu::Response { bindings, .. } = pdu else {
            panic!()
        };
        assert_eq!(bindings.len(), 5);
    }

    #[test]
    fn traps_fire_on_threshold_edge() {
        let (net, site, agent) = setup();
        net.register("gw", Arc::new(|_: &str, _: &[u8]| Vec::new()));
        let rx = net.subscribe("gw").unwrap();
        agent.set_trap_sink(net.clone(), "gw", 3.0);

        // Below threshold: no trap.
        assert!(!agent.pump());
        // Spike the host over the threshold.
        site.inject_load_spike("node00.t", 10.0);
        site.advance_to(61_000);
        assert!(agent.pump());
        // Still over: edge-triggered, no second trap.
        assert!(!agent.pump());

        let push = rx.try_recv().unwrap();
        let msg = codec::decode(&push.payload).unwrap();
        match msg.pdu {
            Pdu::Trap { trap_oid, bindings } => {
                assert_eq!(trap_oid.to_string(), oids::TRAP_LOAD_HIGH);
                assert!(!bindings.is_empty());
            }
            other => panic!("expected trap, got {other:?}"),
        }
        assert!(rx.try_recv().is_err());
    }

    #[test]
    fn garbage_request_answered_not_panicked() {
        let (net, _s, agent) = setup();
        let resp = net
            .request("gw", &agent.address(), b"\xFF\xFF\xFF")
            .unwrap();
        assert!(codec::decode(&resp).is_ok());
    }

    /// The agent as it was before the object table, kept as the oracle:
    /// it answers from the complete OID → value map of the snapshot
    /// (`mib`, built by `mib_for_host`; `None` for an unknown host).
    fn reference_answer(
        community: &str,
        request: &[u8],
        mib: Option<&BTreeMap<Oid, SnmpValue>>,
    ) -> Vec<u8> {
        let respond = |request_id, error_status, bindings| {
            let pdu = Pdu::Response {
                request_id,
                error_status,
                bindings,
            };
            codec::encode(&SnmpMessage::v2c(community, pdu))
        };
        let Ok(msg) = codec::decode(request) else {
            return respond(0, error_status::NO_SUCH_NAME, Vec::new());
        };
        let request_id = match &msg.pdu {
            Pdu::Get { request_id, .. }
            | Pdu::GetNext { request_id, .. }
            | Pdu::GetBulk { request_id, .. } => *request_id,
            _ => 0,
        };
        if msg.community != community {
            return respond(request_id, error_status::AUTH_ERROR, Vec::new());
        }
        let Some(mib) = mib else {
            return respond(request_id, error_status::NO_SUCH_NAME, Vec::new());
        };
        let after = |oid: &Oid| mib.range((Bound::Excluded(oid.clone()), Bound::Unbounded));
        match msg.pdu {
            Pdu::Get { oids, .. } => {
                let bindings = oids
                    .iter()
                    .map(|oid| {
                        (
                            oid.clone(),
                            mib.get(oid).cloned().unwrap_or(SnmpValue::Null),
                        )
                    })
                    .collect();
                respond(request_id, error_status::NO_ERROR, bindings)
            }
            Pdu::GetNext { oids, .. } => {
                let mut bindings = Vec::with_capacity(oids.len());
                let mut status = error_status::NO_ERROR;
                for oid in &oids {
                    match after(oid).next() {
                        Some((o2, v)) => bindings.push((o2.clone(), v.clone())),
                        None => status = error_status::NO_SUCH_NAME, // end of MIB
                    }
                }
                respond(request_id, status, bindings)
            }
            Pdu::GetBulk {
                max_repetitions,
                oid,
                ..
            } => {
                let bindings = after(&oid)
                    .take(max_repetitions as usize)
                    .map(|(o2, v)| (o2.clone(), v.clone()))
                    .collect();
                respond(request_id, error_status::NO_ERROR, bindings)
            }
            Pdu::Response { .. } | Pdu::Trap { .. } => {
                respond(request_id, error_status::NO_SUCH_NAME, Vec::new())
            }
        }
    }

    /// A host of any shape the agent may meet: 0–4 NICs, 0–3 filesystems,
    /// 0–3 disks, 1–8 CPUs, names holding spaces and non-ASCII text,
    /// advanced to some time, and some of its NICs down.
    fn arb_snapshot() -> impl Strategy<Value = HostSnapshot> {
        // The vendored proptest has tuple strategies up to four wide.
        let name = || "\\PC{0,12}";
        let identity = prop::collection::vec(name(), 6..7);
        let sizes = (1u32..9, 1u32..5000, 1u64..65_536, 0u64..65_536);
        let nics = prop::collection::vec((name(), 68u32..9001, any::<bool>()), 0..5);
        let filesystems = prop::collection::vec((name(), 1u64..100_000), 0..4);
        let disks = prop::collection::vec((name(), 1u64..100_000), 0..4);
        let life = (any::<u64>(), 0u64..3_000_000);
        ((identity, sizes), (nics, filesystems, disks), life).prop_map(
            |((identity, sizes), (nics, filesystems, disks), (seed, now_ms))| {
                let [hostname, cpu_model, cpu_vendor, os_name, release, version]: [String; 6] =
                    identity.try_into().expect("six names");
                let (ncpu, clock_mhz, mem_mb, swap_mb) = sizes;
                let spec = HostSpec {
                    hostname,
                    site: "t".to_owned(),
                    ncpu,
                    clock_mhz,
                    cpu_model,
                    cpu_vendor,
                    mem_mb,
                    swap_mb,
                    os: OsSpec {
                        name: os_name,
                        release,
                        version,
                    },
                    disks,
                    filesystems: filesystems
                        .into_iter()
                        .map(|(mount, size)| (mount, "dev".to_owned(), size))
                        .collect(),
                    nics: nics
                        .iter()
                        .map(|(name, mtu, _)| (name.clone(), "10.0.0.1".to_owned(), *mtu))
                        .collect(),
                };
                let mut host = Host::new(seed, spec);
                host.advance_to(now_ms);
                let mut snap = host.snapshot();
                for (nic, (_, _, up)) in snap.nics.iter_mut().zip(&nics) {
                    nic.up = *up;
                }
                snap
            },
        )
    }

    /// OIDs worth asking about, given the keys of a MIB: every key, its
    /// parent (a scalar's object, a table's column), its children 0 and
    /// 1, its neighbours either side (for a column's last row that is
    /// `child(count + 1)`), the empty OID, one before every key and one
    /// past them all.
    fn probes(mib: &BTreeMap<Oid, SnmpValue>) -> Vec<Oid> {
        let mut probes = vec![Oid::default(), Oid::new(&[0]), Oid::new(&[2])];
        for key in mib.keys() {
            let (&last, parent) = key.0.split_last().expect("no key is empty");
            let parent = Oid::new(parent);
            probes.extend([key.clone(), key.child(0), key.child(1)]);
            probes.extend([parent.child(last + 1), parent.child(last.saturating_sub(1))]);
            probes.push(parent);
        }
        probes
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Byte for byte, the agent answers as the map-building agent did:
        /// every request kind, over hosts of every shape (one agent meets
        /// two shapes and the first again, so its table is built, rebuilt
        /// and rebuilt back), for OIDs on, beside, above, below and far
        /// from every key.
        #[test]
        fn answers_are_those_of_the_map_building_agent(
            first in arb_snapshot(),
            second in arb_snapshot(),
            strays in prop::collection::vec(prop::collection::vec(0u32..30, 0..12), 0..4),
            picks in prop::collection::vec(any::<usize>(), 1..9),
            max_repetitions in 0u32..65,
            request_id in any::<u32>(),
            cut in any::<usize>(),
        ) {
            let site = SiteModel::generate(1, &SiteSpec::new("t", 0, 1));
            let agent = SnmpAgent::new(site, "anywhere", "public");
            for snap in [&first, &second, &first] {
                let mib = mib_for_host(snap);
                let check = |community: &str, pdu: Pdu| {
                    let request = codec::encode(&SnmpMessage::v2c(community, pdu));
                    let got = agent.answer(&request, || Some(snap.clone()));
                    let want = reference_answer("public", &request, Some(&mib));
                    assert_eq!(got, want, "{:?}", codec::decode(&request));
                };
                let mut probes = probes(&mib);
                probes.extend(strays.iter().map(|tail| Oid::new(&[1, 3, 6, 1]).extend(tail)));
                for oid in &probes {
                    let oids = vec![oid.clone()];
                    check("public", Pdu::Get { request_id, oids: oids.clone() });
                    check("public", Pdu::GetNext { request_id, oids });
                }
                let picked = |pick: &usize| probes[pick % probes.len()].clone();
                let oids: Vec<Oid> = picks.iter().map(picked).collect();
                check("public", Pdu::Get { request_id, oids: oids.clone() });
                check("public", Pdu::GetNext { request_id, oids: oids.clone() });
                for oid in oids {
                    check("public", Pdu::GetBulk { request_id, max_repetitions, oid });
                }
                // What an agent refuses: another community, PDUs only
                // agents send, and bytes that are no message.
                let oids = vec![picked(&cut)];
                check("private", Pdu::GetNext { request_id, oids });
                check("public", Pdu::Response { request_id, error_status: 0, bindings: Vec::new() });
                check("public", Pdu::Trap { trap_oid: picked(&cut), bindings: Vec::new() });
                let whole = codec::encode(&SnmpMessage::v2c("public", Pdu::Get { request_id, oids: vec![picked(&cut)] }));
                let torn = &whole[..cut % whole.len()];
                assert_eq!(
                    agent.answer(torn, || Some(snap.clone())),
                    reference_answer("public", torn, Some(&mib))
                );
            }
            // A host the site does not know.
            let request = codec::encode(&SnmpMessage::v2c("public", Pdu::Get { request_id, oids: Vec::new() }));
            assert_eq!(agent.answer(&request, || None), reference_answer("public", &request, None));
        }
    }
}
