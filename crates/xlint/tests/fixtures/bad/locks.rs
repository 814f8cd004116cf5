//! Fixture: lock guards held across driver dispatch.

pub fn dispatch_holding_guard(gw: &Gateway) -> Result<RowSet, SqlError> {
    let mut stats = gw.stats.lock();
    stats.requests += 1;
    let rows = gw.driver.execute_query(&gw.sql)?;
    Ok(rows)
}

pub fn poll_holding_read_guard(gw: &Gateway) {
    let snapshot = gw.table.read().unwrap();
    gw.scheduler.poll_now(&snapshot);
}

pub fn guard_bound_after_a_loop(gw: &Gateway) -> usize {
    for event in gw.inbox() {
        gw.ingest(event);
    }
    let _policy = gw.security.read();
    gw.events.dispatch().len()
}
