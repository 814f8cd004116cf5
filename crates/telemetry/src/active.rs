//! Ambient active-span propagation for code that cannot take a
//! [`SpanBuilder`] parameter.
//!
//! Drivers implement a trait from the `dbc` crate, which knows nothing
//! about telemetry; forcing a tracing handle through that interface
//! would couple every driver to this crate. Instead, the layer that
//! *does* hold a span (the connection manager, around each driver
//! attempt) [`enter`]s it here, and deep code such as the GLUE
//! translation path asks for an ambient [`child_span`]. The scope is
//! thread-local and stack-shaped: entering pushes, dropping the guard
//! pops, so nested attempts (a driver re-entering the gateway) nest
//! correctly.

use crate::trace::{GatewayTelemetry, Parent, SpanBuilder, SpanLabel};
use std::cell::RefCell;

thread_local! {
    static ACTIVE: RefCell<Vec<(GatewayTelemetry, Parent)>> = const { RefCell::new(Vec::new()) };
}

/// Guard returned by [`enter`]; leaving the scope pops the active span.
pub struct ActiveSpanGuard {
    _private: (),
}

impl Drop for ActiveSpanGuard {
    fn drop(&mut self) {
        ACTIVE.with(|stack| {
            stack.borrow_mut().pop();
        });
    }
}

/// Make `span` the ambient active span for the current thread until
/// the returned guard drops.
pub fn enter(span: &SpanBuilder) -> ActiveSpanGuard {
    ACTIVE.with(|stack| {
        stack
            .borrow_mut()
            .push((span.hub().clone(), span.as_parent()))
    });
    ActiveSpanGuard { _private: () }
}

/// Start a child of the ambient active span, if one is entered, named
/// by `request`. Code running outside any traced request gets `None`,
/// skips recording and never builds the name.
pub fn child_span<L: SpanLabel>(request: impl FnOnce() -> L) -> Option<SpanBuilder> {
    ACTIVE.with(|stack| {
        stack
            .borrow()
            .last()
            .map(|(hub, parent)| hub.span_under(parent.clone(), request()))
    })
}

/// The ambient trace id, if a span is entered. Lets journal call sites
/// stamp entries without holding a span of their own.
pub fn current_trace_id() -> Option<String> {
    ACTIVE.with(|stack| {
        stack
            .borrow()
            .last()
            .map(|(_, parent)| parent.trace_id.to_string())
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridrm_simnet::SimClock;

    #[test]
    fn child_span_requires_an_entered_scope() {
        assert!(child_span(|| "orphan").is_none());
        assert!(current_trace_id().is_none());

        let hub = GatewayTelemetry::new(SimClock::new());
        hub.set_identity("alpha", "gw-a");
        let root = hub.span("SELECT 1");
        {
            let _guard = enter(&root);
            assert_eq!(current_trace_id().as_deref(), Some(root.trace_id()));
            let child = child_span(|| "glue Processor").expect("active scope");
            assert_eq!(child.trace_id(), root.trace_id());
            child.finish("ok");
        }
        assert!(child_span(|| "after-drop").is_none());
        root.finish("ok");

        let spans = hub.traces().recent();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].request, "glue Processor");
        assert_eq!(
            spans[0].parent_span_id.as_deref(),
            Some(spans[1].span_id.as_str())
        );
    }

    #[test]
    fn scopes_nest_like_a_stack() {
        let hub = GatewayTelemetry::new(SimClock::new());
        let outer = hub.span("outer");
        let inner = outer.child("inner");
        let _g1 = enter(&outer);
        {
            let _g2 = enter(&inner);
            let c = child_span(|| "deep").unwrap();
            assert_eq!(
                c.context().trace_id,
                outer.context().trace_id,
                "nested scope stays in the same trace"
            );
            c.finish("ok");
        }
        // Back to the outer scope after the inner guard dropped.
        let c = child_span(|| "shallow").unwrap();
        c.finish("ok");
        inner.finish("ok");
        outer.finish("ok");
        let spans = hub.traces().recent();
        let deep = spans.iter().find(|s| s.request == "deep").unwrap();
        let shallow = spans.iter().find(|s| s.request == "shallow").unwrap();
        let inner_rec = spans.iter().find(|s| s.request == "inner").unwrap();
        let outer_rec = spans.iter().find(|s| s.request == "outer").unwrap();
        assert_eq!(
            deep.parent_span_id.as_deref(),
            Some(inner_rec.span_id.as_str())
        );
        assert_eq!(
            shallow.parent_span_id.as_deref(),
            Some(outer_rec.span_id.as_str())
        );
    }
}
