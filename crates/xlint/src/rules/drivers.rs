//! `driver-conformance` — every driver in `crates/drivers` keeps the
//! homogeneous surface the paper's gateway promises: GLUE translation
//! is routed through `base::glue_translate` — never a direct
//! `Translator::translate_all` call — so drop/NULL accounting and the
//! `glue_translate` trace stage stay uniform. (That every driver
//! decides URL compatibility needs no lint: `accepts_url` is a
//! required `Driver` method, and the kit implements it once.)

use crate::tokens::{contains_call, contains_path};
use crate::{Config, Finding, SourceFile};

/// Run the conformance rule over one file.
pub fn check(sf: &SourceFile, config: &Config) -> Vec<Finding> {
    if !sf.rel_path.starts_with(&config.driver_dir) {
        return Vec::new();
    }
    if config.driver_exempt.contains(&sf.rel_path) {
        return Vec::new();
    }
    let mut out = Vec::new();

    // A driver that builds a GLUE Translator must route rows through
    // base::glue_translate.
    let uses_translator = contains_path(&sf.tokens, "Translator", "new");
    let routes_through_base = contains_call(&sf.tokens, "glue_translate", true)
        || contains_path(&sf.tokens, "base", "glue_translate");
    if uses_translator && !routes_through_base {
        out.push(Finding {
            rule: "driver-conformance".to_owned(),
            file: sf.rel_path.clone(),
            line: 1,
            column: 1,
            message: "driver builds a GLUE Translator but never calls base::glue_translate — \
                      translation must go through the DDK for uniform drop/NULL tracing"
                .to_owned(),
        });
    }

    // Direct translate_all bypasses the DDK accounting.
    let mut direct = Vec::new();
    crate::tokens::for_each_seq(&sf.tokens, &mut |seq| {
        for call in crate::tokens::method_calls(seq) {
            if call.name == "translate_all" {
                direct.push((call.line, call.column));
            }
        }
    });
    for (line, column) in direct {
        out.push(Finding {
            rule: "driver-conformance".to_owned(),
            file: sf.rel_path.clone(),
            line,
            column: column + 1,
            message: "direct `.translate_all(..)` call — route GLUE translation through \
                      `base::glue_translate` instead"
                .to_owned(),
        });
    }
    out
}
