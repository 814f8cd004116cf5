//! Fixture: a conforming driver source — GLUE rows routed through the
//! DDK.

impl Source for GoodSource {
    fn query(&self, at: &Target<'_>, schema: &mut SchemaHandle, sel: &SelectStatement) -> DbcResult<RowSet> {
        let translator = Translator::new(schema);
        let rows = base::glue_translate(&translator, &sel.table, &self.native_rows(at))?;
        finish(rows)
    }
}
