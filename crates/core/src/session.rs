//! Session Management (Fig 2): clients authenticate once, receive a
//! token, and present it on subsequent requests until it expires.

use crate::acil::ClientRequest;
use crate::security::Identity;
use gridrm_dbc::{DbcResult, SqlError};
use parking_lot::RwLock;
use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// An opaque session token.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SessionToken(pub u64);

struct Session {
    identity: Identity,
    expires_ms: u64,
}

/// The session registry. Time comes from the shared virtual clock, passed
/// in by the caller so the manager itself stays clock-agnostic.
pub struct SessionManager {
    sessions: RwLock<HashMap<u64, Session>>,
    ttl_ms: u64,
    next_id: AtomicU64,
}

impl SessionManager {
    /// Manager whose sessions live `ttl_ms` of virtual time.
    pub fn new(ttl_ms: u64) -> SessionManager {
        SessionManager {
            sessions: RwLock::new(HashMap::new()),
            ttl_ms,
            next_id: AtomicU64::new(1),
        }
    }

    /// Open a session for `identity` at time `now_ms`.
    pub fn open(&self, identity: Identity, now_ms: u64) -> SessionToken {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.sessions.write().insert(
            id,
            Session {
                identity,
                expires_ms: now_ms + self.ttl_ms,
            },
        );
        SessionToken(id)
    }

    /// Resolve a token to its identity; renews the expiry (sliding TTL).
    pub fn resolve(&self, token: SessionToken, now_ms: u64) -> Option<Identity> {
        let mut sessions = self.sessions.write();
        let session = sessions.get_mut(&token.0)?;
        if session.expires_ms < now_ms {
            sessions.remove(&token.0);
            return None;
        }
        session.expires_ms = now_ms + self.ttl_ms;
        Some(session.identity.clone())
    }

    /// The principal `request` runs as: its session's identity when it
    /// carries a token (an invalid or expired one is an error), else
    /// the identity it names, else anonymous. The one place a request's
    /// identity is resolved; borrowed when the request carries it.
    pub fn principal<'r>(
        &self,
        request: &'r ClientRequest,
        now_ms: u64,
    ) -> DbcResult<Cow<'r, Identity>> {
        if let Some(token) = request.token {
            return self
                .resolve(token, now_ms)
                .map(Cow::Owned)
                .ok_or_else(|| SqlError::Security("invalid or expired session".into()));
        }
        Ok(match &request.identity {
            Some(identity) => Cow::Borrowed(identity),
            None => Cow::Owned(Identity::anonymous()),
        })
    }

    /// Close a session explicitly.
    pub fn close(&self, token: SessionToken) -> bool {
        self.sessions.write().remove(&token.0).is_some()
    }

    /// Drop all expired sessions; returns how many were removed.
    pub fn sweep(&self, now_ms: u64) -> usize {
        let mut sessions = self.sessions.write();
        let before = sessions.len();
        sessions.retain(|_, s| s.expires_ms >= now_ms);
        before - sessions.len()
    }

    /// Number of live sessions.
    pub fn len(&self) -> usize {
        self.sessions.read().len()
    }

    /// True when no sessions exist.
    pub fn is_empty(&self) -> bool {
        self.sessions.read().is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn open_resolve_close() {
        let m = SessionManager::new(10_000);
        let t = m.open(Identity::new("alice", &["monitor"]), 0);
        let id = m.resolve(t, 5_000).unwrap();
        assert_eq!(id.name, "alice");
        assert!(m.close(t));
        assert!(m.resolve(t, 5_000).is_none());
        assert!(!m.close(t));
    }

    #[test]
    fn expiry_and_sliding_renewal() {
        let m = SessionManager::new(10_000);
        let t = m.open(Identity::anonymous(), 0);
        // Touch at 8s: renewed until 18s.
        assert!(m.resolve(t, 8_000).is_some());
        assert!(m.resolve(t, 17_000).is_some());
        // Let it lapse.
        assert!(m.resolve(t, 40_000).is_none());
    }

    #[test]
    fn sweep_removes_only_expired() {
        let m = SessionManager::new(1_000);
        let _a = m.open(Identity::anonymous(), 0);
        let b = m.open(Identity::anonymous(), 5_000);
        assert_eq!(m.sweep(2_000), 1);
        assert_eq!(m.len(), 1);
        assert!(m.resolve(b, 5_500).is_some());
    }

    #[test]
    fn tokens_are_unique() {
        let m = SessionManager::new(1_000);
        let a = m.open(Identity::anonymous(), 0);
        let b = m.open(Identity::anonymous(), 0);
        assert_ne!(a, b);
    }
}
