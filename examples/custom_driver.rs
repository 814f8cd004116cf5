//! Writing a new GridRM driver (§3.2.1's driver-development guidelines),
//! end to end: a brand-new kind of data source (an environmental sensor
//! network speaking its own protocol), a GLUE schema *extension* for it,
//! a minimal driver, and runtime registration — "GridRM can be extended to
//! work with any number of data sources" (§3.2).
//!
//! Run with: `cargo run --example custom_driver`

use gridrm::core::events::ListenerFilter;
use gridrm::dbc::{DbcResult, DriverMetaData, SqlError};
use gridrm::drivers::base::{KitDriver, NativeRows, Source, Target};
use gridrm::glue::{AttributeDef, DriverMapping, FieldMapping, GroupDef, NativeRow, NeededKeys};
use gridrm::prelude::*;
use gridrm::simnet::Service;
use gridrm::sqlparse::ast::SelectStatement;
use gridrm::sqlparse::SqlType;
use std::sync::Arc;

// ---------------------------------------------------------------------
// 1. The data source: an environmental sensor hub with its own protocol
//    ("READINGS" -> "id temperature_c humidity_pct" lines).
// ---------------------------------------------------------------------

struct SensorHub {
    readings: Vec<(String, f64, f64)>,
}

impl Service for SensorHub {
    fn handle(&self, _from: &str, request: &[u8]) -> Vec<u8> {
        match request {
            b"READINGS" => self
                .readings
                .iter()
                .map(|(id, t, h)| format!("{id} {t:.2} {h:.1}\n"))
                .collect::<String>()
                .into_bytes(),
            _ => b"ERROR unknown command\n".to_vec(),
        }
    }
}

// ---------------------------------------------------------------------
// 2. The minimal driver (§3.2.1): metadata, a one-request probe and a
//    fetch that returns native rows. The JDBC Driver/Connection/
//    Statement triple, SQL parsing, schema caching, GLUE translation
//    and the ResultSet all come from the driver development kit.
// ---------------------------------------------------------------------

const DRIVER_NAME: &str = "jdbc-enviro";

struct Enviro;

fn readings(at: &Target<'_>) -> DbcResult<String> {
    let bytes = at.request("enviro", b"READINGS")?;
    let text = String::from_utf8_lossy(&bytes).into_owned();
    if text.starts_with("ERROR") {
        return Err(SqlError::Driver(format!("sensor hub: {}", text.trim())));
    }
    Ok(text)
}

impl Source for Enviro {
    fn meta(&self) -> DriverMetaData {
        DriverMetaData {
            name: DRIVER_NAME.to_owned(),
            subprotocol: "enviro".to_owned(),
            version: (0, 1),
            description: "third-party environmental sensor hub driver".to_owned(),
        }
    }

    fn probe(&self, at: &Target<'_>) -> DbcResult<()> {
        readings(at).map(|_| ())
    }

    fn fetch(
        &self,
        at: &Target<'_>,
        _group: &GroupDef,
        _needed: &NeededKeys<'_>,
        _sel: &SelectStatement,
    ) -> DbcResult<NativeRows> {
        Ok(readings(at)?
            .lines()
            .filter_map(|line| {
                let mut parts = line.split_whitespace();
                let id = parts.next()?;
                let temp: f64 = parts.next()?.parse().ok()?;
                let hum: f64 = parts.next()?.parse().ok()?;
                let mut row = NativeRow::new();
                row.insert("sensor.id".into(), SqlValue::Str(id.to_owned()));
                row.insert("sensor.temp".into(), SqlValue::Float(temp));
                row.insert("sensor.humidity".into(), SqlValue::Float(hum));
                Some(row)
            })
            .collect())
    }
}

// ---------------------------------------------------------------------
// 3. Wire it all together at runtime.
// ---------------------------------------------------------------------

fn main() {
    let net = Network::new(SimClock::new(), 99);
    let site = SiteModel::generate(1, &SiteSpec::new("lab", 2, 2));
    site.advance_to(60_000);
    deploy_site(&net, site);
    let gateway = Gateway::new(GatewayConfig::new("gw-lab", "lab"), net.clone());
    let env = install_into_gateway(&gateway);

    // A sensor hub appears on the network, speaking a protocol GridRM has
    // never seen.
    net.register(
        "hub01.lab:enviro",
        Arc::new(SensorHub {
            readings: vec![
                ("rack-a".into(), 24.5, 41.0),
                ("rack-b".into(), 31.2, 38.5),
                ("intake".into(), 18.9, 55.0),
            ],
        }),
    );

    // Extend the GLUE schema with a new group ("as GLUE evolves", §3.2.3).
    gateway.schema().upsert_group(GroupDef {
        name: "EnvironmentSensor".into(),
        description: "Environmental sensor readings".into(),
        attributes: vec![
            AttributeDef::new("SensorId", SqlType::Str, None, "Sensor identifier"),
            AttributeDef::new("TemperatureC", SqlType::Float, Some("degC"), "Temperature"),
            AttributeDef::new(
                "HumidityPct",
                SqlType::Float,
                Some("%"),
                "Relative humidity",
            ),
        ],
    });

    // Register the driver's GLUE implementation metadata and the driver
    // itself — both at runtime (Table 1).
    gateway
        .schema()
        .register_mapping(DriverMapping::new(DRIVER_NAME).with_group(
            "EnvironmentSensor",
            [
                ("SensorId", FieldMapping::direct("sensor.id")),
                ("TemperatureC", FieldMapping::direct("sensor.temp")),
                ("HumidityPct", FieldMapping::direct("sensor.humidity")),
            ],
        ));
    gateway
        .driver_manager()
        .register(KitDriver::with_source(env, Enviro));

    // Alerting works immediately — the Event Manager has no idea a new
    // kind of source exists, and doesn't need to.
    gateway.alerts().add_rule(AlertRule {
        name: "overheating".into(),
        group: "EnvironmentSensor".into(),
        attr: "TemperatureC".into(),
        cmp: Comparison::Gt,
        threshold: 30.0,
        severity: Severity::Critical,
        category: "env.temperature.high".into(),
    });
    let (_, alerts) = gateway
        .events()
        .register_listener(ListenerFilter::default());

    // Query the brand-new source with plain SQL through the same gateway.
    let resp = gateway
        .query(&ClientRequest::realtime(
            "jdbc:enviro://hub01.lab/",
            "SELECT SensorId, TemperatureC, HumidityPct FROM EnvironmentSensor \
             ORDER BY TemperatureC DESC",
        ))
        .expect("custom driver query");
    println!("EnvironmentSensor via the runtime-registered driver:\n");
    println!("{}", resp.rows.to_table_string());

    gateway.pump();
    for e in alerts.try_iter() {
        println!("ALERT [{}] {}", e.severity.name(), e.message);
    }

    // And of course the ordinary sources are untouched.
    let resp = gateway
        .query(&ClientRequest::realtime(
            "jdbc:snmp://node00.lab/public",
            "SELECT Hostname, Load1 FROM Processor",
        ))
        .expect("snmp still fine");
    println!("\nSNMP continues to work alongside:\n");
    println!("{}", resp.rows.to_table_string());
}
