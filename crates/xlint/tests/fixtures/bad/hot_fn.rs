//! Fixture: panic-audit scope for drivers is per-function — only the
//! kit's `execute_query`/`execute_update` and the `Source` hooks are
//! audited, not the helpers beside them.

pub fn helper() {
    helper_value().unwrap();
}

impl Source for HotSource {
    fn probe(&self, at: &Target<'_>) -> DbcResult<()> {
        at.request("hot", b"PING").map(|_| ())
    }

    fn fetch(&self, at: &Target<'_>) -> DbcResult<Vec<NativeRow>> {
        let rows = parse(at.request("hot", b"ROWS")?).unwrap();
        Ok(rows)
    }
}

impl Statement for HotStatement {
    fn execute_query(&mut self, sql: &str) -> DbcResult<Box<dyn ResultSet>> {
        let sel = parse_select(sql).unwrap();
        self.run(sel)
    }
}
