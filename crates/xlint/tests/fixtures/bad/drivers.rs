//! Fixture: a driver source that bypasses the DDK — it translates its
//! own native rows instead of returning them to the kit.

impl Source for BadSource {
    fn query(&self, at: &Target<'_>, schema: &mut SchemaHandle, sel: &SelectStatement) -> DbcResult<RowSet> {
        let translator = Translator::new(schema);
        let rows = translator.translate_all(&sel.table, &self.native_rows(at));
        finish(rows)
    }
}
