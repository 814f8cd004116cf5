//! Canonical simulated worlds for the experiments.

use gridrm_agents::{deploy_site, SiteAgents};
use gridrm_core::{Gateway, GatewayConfig};
use gridrm_drivers::{install_into_gateway, DriverEnv};
use gridrm_global::{GlobalLayer, GmaDirectory};
use gridrm_resmodel::{SiteModel, SiteSpec};
use gridrm_simnet::{Latency, Network, SimClock};
use std::sync::Arc;

/// Fixed seed so every experiment run is reproducible; printed by the
/// harness alongside results.
pub const SEED: u64 = 0x6721d;

/// One site with its gateway.
pub struct SiteWorld {
    /// The shared network.
    pub net: Arc<Network>,
    /// Deployed agents.
    pub agents: SiteAgents,
    /// The gateway (standard drivers installed).
    pub gateway: Arc<Gateway>,
    /// Driver environment (for constructing drivers at runtime).
    pub env: Arc<DriverEnv>,
}

/// Build a single-site world with `hosts` nodes, advanced to ten virtual
/// minutes so metrics and NWS history are populated.
pub fn single_site_world(hosts: usize) -> SiteWorld {
    let net = Network::new(SimClock::new(), SEED);
    let mut spec = SiteSpec::new("bench", hosts, 4);
    spec.peers = vec!["node00.peer".to_owned()];
    let site = SiteModel::generate(SEED, &spec);
    site.advance_to(600_000);
    let agents = deploy_site(&net, site);
    let gateway = Gateway::new(GatewayConfig::new("gw-bench", "bench"), net.clone());
    let env = install_into_gateway(&gateway);
    SiteWorld {
        net,
        agents,
        gateway,
        env,
    }
}

/// One site of a [`GridWorld`]: `(model, agents, gateway, layer)`.
pub type GridSite = (Arc<SiteModel>, SiteAgents, Arc<Gateway>, Arc<GlobalLayer>);

/// A multi-site Grid with the Global layer attached everywhere.
pub struct GridWorld {
    /// The shared network.
    pub net: Arc<Network>,
    /// Per-site `(model, agents, gateway, layer)`.
    pub sites: Vec<GridSite>,
}

/// Build a Grid of `n_sites` sites × `hosts` hosts.
pub fn grid_world(n_sites: usize, hosts: usize) -> GridWorld {
    let net = Network::new(SimClock::new(), SEED);
    let directory = GmaDirectory::new();
    let mut sites = Vec::with_capacity(n_sites);
    for i in 0..n_sites {
        let name = format!("site{i}");
        let model = SiteModel::generate(SEED + i as u64, &SiteSpec::new(&name, hosts, 4));
        model.advance_to(600_000);
        let agents = deploy_site(&net, model.clone());
        let gateway = Gateway::new(
            GatewayConfig::new(&format!("gw-{name}"), &name),
            net.clone(),
        );
        install_into_gateway(&gateway);
        let layer = GlobalLayer::attach(gateway.clone(), directory.clone());
        sites.push((model, agents, gateway, layer));
    }
    GridWorld { net, sites }
}

/// A [`grid_world`] whose inter-gateway GMA links all carry the given
/// symmetric WAN latency. Intra-site links stay LAN-fast (zero), so any
/// latency an experiment measures is attributable to the wide area.
pub fn grid_world_with_wan(n_sites: usize, hosts: usize, wan: Latency) -> GridWorld {
    let world = grid_world(n_sites, hosts);
    for a in 0..n_sites {
        for b in 0..n_sites {
            if a != b {
                world
                    .net
                    .set_latency(&format!("gw.site{a}:gma"), &format!("gw.site{b}:gma"), wan);
            }
        }
    }
    world
}
