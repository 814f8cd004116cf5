//! Property-based end-to-end tests: for arbitrary query parameters, the
//! driver pipeline (native fetch → GLUE translation → SELECT execution)
//! agrees with a reference computation over the full unfiltered result.

use gridrm::prelude::*;
use proptest::prelude::*;
use std::sync::Arc;

fn world() -> (Arc<SiteModel>, Arc<Gateway>) {
    let net = Network::new(SimClock::new(), 4242);
    let site = SiteModel::generate(9, &SiteSpec::new("pp", 6, 4));
    site.advance_to(240_000);
    deploy_site(&net, site.clone());
    let gateway = Gateway::new(GatewayConfig::new("gw-pp", "pp"), net);
    gridrm::drivers::install_into_gateway(&gateway);
    (site, gateway)
}

fn full_load_table(gateway: &Gateway) -> Vec<(String, f64)> {
    let resp = gateway
        .query(&ClientRequest::realtime(
            "jdbc:ganglia://node00.pp/pp?ttl=600000",
            "SELECT Hostname, Load1 FROM Processor",
        ))
        .unwrap();
    resp.rows
        .rows()
        .iter()
        .map(|r| (r[0].to_string(), r[1].as_f64().unwrap()))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// WHERE Load1 > t through the driver == manual filter of the full set.
    /// (The long TTL keeps every query on one cached snapshot, so the
    /// reference and the filtered query see identical data.)
    #[test]
    fn where_threshold_agrees_with_reference(threshold in 0.0f64..3.0) {
        let (_site, gateway) = world();
        let reference = full_load_table(&gateway);
        let expected: usize = reference.iter().filter(|(_, l)| *l > threshold).count();
        let resp = gateway
            .query(&ClientRequest::realtime(
                "jdbc:ganglia://node00.pp/pp?ttl=600000",
                &format!("SELECT Hostname FROM Processor WHERE Load1 > {threshold}"),
            ))
            .unwrap();
        prop_assert_eq!(resp.rows.len(), expected);
    }

    /// ORDER BY + LIMIT returns the top-k of the reference ordering.
    #[test]
    fn order_limit_agrees_with_reference(k in 1usize..6) {
        let (_site, gateway) = world();
        let mut reference = full_load_table(&gateway);
        reference.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
        let resp = gateway
            .query(&ClientRequest::realtime(
                "jdbc:ganglia://node00.pp/pp?ttl=600000",
                &format!("SELECT Hostname, Load1 FROM Processor ORDER BY Load1 DESC LIMIT {k}"),
            ))
            .unwrap();
        prop_assert_eq!(resp.rows.len(), k.min(reference.len()));
        for (i, row) in resp.rows.rows().iter().enumerate() {
            prop_assert_eq!(row[0].to_string(), reference[i].0.clone());
        }
    }

    /// Aggregates via the driver match manual aggregation.
    #[test]
    fn aggregate_agrees_with_reference(use_avg in any::<bool>()) {
        let (_site, gateway) = world();
        let reference = full_load_table(&gateway);
        let expected = if use_avg {
            reference.iter().map(|(_, l)| l).sum::<f64>() / reference.len() as f64
        } else {
            reference.iter().map(|(_, l)| *l).fold(f64::MIN, f64::max)
        };
        let agg = if use_avg { "AVG(Load1)" } else { "MAX(Load1)" };
        let resp = gateway
            .query(&ClientRequest::realtime(
                "jdbc:ganglia://node00.pp/pp?ttl=600000",
                &format!("SELECT {agg} FROM Processor"),
            ))
            .unwrap();
        let got = resp.rows.rows()[0][0].as_f64().unwrap();
        prop_assert!((got - expected).abs() < 1e-9, "{} vs {}", got, expected);
    }

    /// A dump parsed for one query (`ttl=0`) and a query answered from
    /// the driver's kept rows agree for arbitrary projections.
    #[test]
    fn fresh_and_cached_projection_agreement(cols in prop::sample::subsequence(
        vec!["Hostname", "NCpu", "Load1", "Load5", "CpuIdle", "ClockMHz"], 1..5))
    {
        let (_site, gateway) = world();
        let projection = cols.join(", ");
        let sql = format!("SELECT {projection} FROM Processor ORDER BY Hostname");
        let fresh = gateway
            .query(&ClientRequest::realtime("jdbc:ganglia://node00.pp/pp?ttl=0", &sql))
            .unwrap();
        let cached = gateway
            .query(&ClientRequest::realtime("jdbc:ganglia://node00.pp/pp?ttl=600000", &sql))
            .unwrap();
        prop_assert_eq!(fresh.rows.rows(), cached.rows.rows());
    }

    /// Random-threshold alert rules fire exactly where a manual scan says.
    #[test]
    fn alert_rules_fire_consistently(threshold in 0.0f64..2.0) {
        let (_site, gateway) = world();
        let reference = full_load_table(&gateway);
        let expected = reference.iter().filter(|(_, l)| *l > threshold).count();
        gateway.alerts().add_rule(AlertRule {
            name: "prop-rule".into(),
            group: "Processor".into(),
            attr: "Load1".into(),
            cmp: Comparison::Gt,
            threshold,
            severity: Severity::Warning,
            category: "prop.load".into(),
        });
        let (_, rx) = gateway.events().register_listener(ListenerFilter::default());
        gateway
            .query(&ClientRequest::realtime(
                "jdbc:ganglia://node00.pp/pp?ttl=600000",
                "SELECT Hostname, Load1 FROM Processor",
            ))
            .unwrap();
        gateway.pump();
        prop_assert_eq!(rx.try_iter().count(), expected);
    }
}
