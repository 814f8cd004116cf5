//! The Coarse and Fine Grained Security Layers (paper §2): "each Gateway
//! is responsible for the security of the resources it controls", with
//! "multi-level and granularity of security for data access" and the
//! option, in a hierarchy, to *defer* decisions "to the local Gateway
//! responsible for a given resource".
//!
//! Both layers are one call, [`SecurityPolicy::authorize`], made by the
//! realtime/cached request path, the historical path, `Gateway::subscribe`
//! and the Global layer's fan-out (DESIGN.md, "Who may see a row").
//! A historical scan skips every row the fine check denies, aggregates
//! included: a `history` row is checked as its `(source, grp)`, an
//! `events` row as `(source, "events")`, and any other store table once,
//! as the jdbc-gridrm mount would check it.
//!
//! Deferral: a URL under a `deferred_prefixes` entry is not this
//! gateway's to decide. Its local layer answers it with a `Deferred`
//! outcome and no rows; through the Global layer the query reaches the
//! owner, which applies its own `Query` and fine rules to the identity
//! the request carries (`crates/global/tests/deferral.rs`).

use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;

/// An authenticated principal.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Identity {
    /// Principal name.
    pub name: String,
    /// Granted roles.
    pub roles: BTreeSet<String>,
}

impl Identity {
    /// Identity with roles.
    pub fn new(name: &str, roles: &[&str]) -> Identity {
        Identity {
            name: name.to_owned(),
            roles: roles.iter().map(|r| (*r).to_owned()).collect(),
        }
    }

    /// The anonymous principal (no roles).
    pub fn anonymous() -> Identity {
        Identity {
            name: "anonymous".to_owned(),
            roles: BTreeSet::new(),
        }
    }

    /// Does the identity hold `role`?
    fn has_role(&self, role: &str) -> bool {
        self.roles.contains(role)
    }
}

/// Gateway-level operations guarded by the Coarse Grained Security Layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CoarseOperation {
    /// Query resources (realtime or cached), here or through the
    /// Global layer.
    Query,
    /// Read historical data.
    QueryHistory,
    /// Register a continuous-query subscription.
    Subscribe,
}

/// What a principal asks to see: the one argument of
/// [`SecurityPolicy::authorize`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Access<'a> {
    /// A gateway-level operation (Coarse Grained Security Layer).
    Operation(CoarseOperation),
    /// One GLUE group of one resource URL (Fine Grained Security Layer).
    Resource {
        /// The resource URL.
        url: &'a str,
        /// The GLUE group (or, on the historical store, the table).
        group: &'a str,
    },
}

/// Outcome of a security check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Decision {
    /// Proceed.
    Allow,
    /// Refuse, with a reason.
    Deny(String),
    /// This gateway is not authoritative; ask the gateway that owns the
    /// resource (hierarchical deferral, §2).
    Defer,
}

impl Decision {
    /// Is this an Allow?
    pub fn is_allow(&self) -> bool {
        matches!(self, Decision::Allow)
    }
}

/// One fine-grained ACL rule. Matching is prefix-based on the resource URL
/// and case-insensitive exact (or `*`) on the GLUE group.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct AclRule {
    /// Role the rule applies to (`*` = any role, including none).
    pub role: String,
    /// URL prefix the rule covers (empty = all resources).
    pub url_prefix: String,
    /// GLUE group (`*` = all groups).
    pub group: String,
    /// Allow or deny.
    pub allow: bool,
}

impl AclRule {
    fn matches(&self, identity: &Identity, url: &str, group: &str) -> bool {
        let role_ok = self.role == "*" || identity.has_role(&self.role);
        let url_ok = url.starts_with(&self.url_prefix);
        let group_ok = self.group == "*" || self.group.eq_ignore_ascii_case(group);
        role_ok && url_ok && group_ok
    }
}

/// The gateway's complete security policy: coarse role requirements plus
/// fine-grained ACL rules.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SecurityPolicy {
    /// Role required per coarse operation (absent = no requirement).
    pub coarse: Vec<(CoarseOperation, String)>,
    /// Fine-grained rules, evaluated first-match-wins.
    pub rules: Vec<AclRule>,
    /// Verdict when no rule matches.
    pub default_allow: bool,
    /// URL prefixes this gateway is *not* authoritative for → Defer.
    pub deferred_prefixes: Vec<String>,
}

impl SecurityPolicy {
    /// A policy that allows everything (the development default; the
    /// paper's prototype was similarly open by default).
    pub fn permissive() -> SecurityPolicy {
        SecurityPolicy {
            coarse: Vec::new(),
            rules: Vec::new(),
            default_allow: true,
            deferred_prefixes: Vec::new(),
        }
    }

    /// A locked-down policy: every coarse operation requires a role named
    /// after it and the fine default is deny.
    pub fn strict() -> SecurityPolicy {
        SecurityPolicy {
            coarse: vec![
                (CoarseOperation::Query, "monitor".to_owned()),
                (CoarseOperation::QueryHistory, "monitor".to_owned()),
                (CoarseOperation::Subscribe, "monitor".to_owned()),
            ],
            rules: Vec::new(),
            default_allow: false,
            deferred_prefixes: Vec::new(),
        }
    }

    /// Builder: require `role` for `op`.
    pub fn require(mut self, op: CoarseOperation, role: &str) -> SecurityPolicy {
        self.coarse.retain(|(o, _)| *o != op);
        self.coarse.push((op, role.to_owned()));
        self
    }

    /// Builder: append a fine-grained rule.
    pub fn with_rule(mut self, rule: AclRule) -> SecurityPolicy {
        self.rules.push(rule);
        self
    }

    /// May `identity` have `access`? The one authorisation point: an
    /// `Allow` allocates nothing.
    pub fn authorize(&self, identity: &Identity, access: Access<'_>) -> Decision {
        match access {
            Access::Operation(op) => self.check_coarse(identity, op),
            Access::Resource { url, group } => self.check_fine(identity, url, group),
        }
    }

    /// Coarse Grained Security Layer check.
    fn check_coarse(&self, identity: &Identity, op: CoarseOperation) -> Decision {
        match self.coarse.iter().find(|(o, _)| *o == op) {
            Some((_, role)) if !identity.has_role(role) => {
                Decision::Deny(format!("operation {op:?} requires role '{role}'",))
            }
            _ => Decision::Allow,
        }
    }

    /// Fine Grained Security Layer check for `(resource URL, GLUE group)`.
    fn check_fine(&self, identity: &Identity, url: &str, group: &str) -> Decision {
        if self
            .deferred_prefixes
            .iter()
            .any(|p| url.starts_with(p.as_str()))
        {
            return Decision::Defer;
        }
        for rule in &self.rules {
            if rule.matches(identity, url, group) {
                return if rule.allow {
                    Decision::Allow
                } else {
                    Decision::Deny(format!(
                        "access to {group} on {url} denied for '{}'",
                        identity.name
                    ))
                };
            }
        }
        if self.default_allow {
            Decision::Allow
        } else {
            Decision::Deny(format!(
                "no rule grants '{}' access to {group} on {url}",
                identity.name
            ))
        }
    }
}

impl Default for SecurityPolicy {
    fn default() -> Self {
        SecurityPolicy::permissive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn permissive_allows_everything() {
        let p = SecurityPolicy::permissive();
        let anon = Identity::anonymous();
        assert!(p.check_coarse(&anon, CoarseOperation::Subscribe).is_allow());
        assert!(p
            .check_fine(&anon, "jdbc:snmp://n/p", "Processor")
            .is_allow());
    }

    #[test]
    fn strict_denies_anonymous() {
        let p = SecurityPolicy::strict();
        let anon = Identity::anonymous();
        assert!(matches!(
            p.check_coarse(&anon, CoarseOperation::Query),
            Decision::Deny(_)
        ));
        let monitor = Identity::new("alice", &["monitor"]);
        assert!(p.check_coarse(&monitor, CoarseOperation::Query).is_allow());
        assert!(p
            .authorize(&monitor, Access::Operation(CoarseOperation::Subscribe))
            .is_allow());
        // Fine default deny.
        assert!(matches!(
            p.check_fine(&monitor, "jdbc:snmp://n/p", "Processor"),
            Decision::Deny(_)
        ));
    }

    #[test]
    fn first_match_wins() {
        let p = SecurityPolicy::strict()
            .with_rule(AclRule {
                role: "monitor".into(),
                url_prefix: "jdbc:snmp://secret".into(),
                group: "*".into(),
                allow: false,
            })
            .with_rule(AclRule {
                role: "monitor".into(),
                url_prefix: "jdbc:snmp://".into(),
                group: "*".into(),
                allow: true,
            });
        let alice = Identity::new("alice", &["monitor"]);
        assert!(p
            .check_fine(&alice, "jdbc:snmp://node01/p", "Processor")
            .is_allow());
        assert!(matches!(
            p.check_fine(&alice, "jdbc:snmp://secret-host/p", "Processor"),
            Decision::Deny(_)
        ));
    }

    #[test]
    fn group_scoped_rule() {
        let p = SecurityPolicy::strict().with_rule(AclRule {
            role: "*".into(),
            url_prefix: String::new(),
            group: "Processor".into(),
            allow: true,
        });
        let anon = Identity::anonymous();
        assert!(p.check_fine(&anon, "jdbc:x://h/p", "processor").is_allow());
        assert!(matches!(
            p.check_fine(&anon, "jdbc:x://h/p", "MainMemory"),
            Decision::Deny(_)
        ));
    }

    #[test]
    fn deferral() {
        let mut p = SecurityPolicy::permissive();
        p.deferred_prefixes.push("jdbc:snmp://remote-site".into());
        let anon = Identity::anonymous();
        assert_eq!(
            p.check_fine(&anon, "jdbc:snmp://remote-site-x/p", "Host"),
            Decision::Defer
        );
        assert!(p
            .check_fine(&anon, "jdbc:snmp://local/p", "Host")
            .is_allow());
    }

    #[test]
    fn require_replaces_existing() {
        let p = SecurityPolicy::permissive()
            .require(CoarseOperation::Query, "a")
            .require(CoarseOperation::Query, "b");
        let has_a = Identity::new("x", &["a"]);
        let has_b = Identity::new("y", &["b"]);
        assert!(!p.check_coarse(&has_a, CoarseOperation::Query).is_allow());
        assert!(p.check_coarse(&has_b, CoarseOperation::Query).is_allow());
    }
}
