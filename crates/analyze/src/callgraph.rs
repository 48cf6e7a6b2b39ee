//! Whole-workspace call graph by name/arity resolution.
//!
//! Without type information, a call site resolves to *every* workspace
//! function whose name and arity are compatible. The latch-order summaries
//! follow only the sites that resolve to exactly one function: a popular
//! name resolves to many unrelated ones.

use std::collections::BTreeMap;

/// Call-site resolution over the workspace function list.
#[derive(Debug)]
pub struct CallGraph {
    /// name → indices of functions with that name.
    by_name: BTreeMap<String, Vec<usize>>,
    /// Per-function (param count excl. self, has_self).
    sigs: Vec<(usize, bool)>,
}

impl CallGraph {
    /// Build from `(name, params-excl-self, has_self)` per function, indexed
    /// in the same order the caller uses for function ids.
    pub fn new(fns: &[(String, usize, bool)]) -> CallGraph {
        let mut by_name: BTreeMap<String, Vec<usize>> = BTreeMap::new();
        let mut sigs = Vec::with_capacity(fns.len());
        for (i, (name, params, has_self)) in fns.iter().enumerate() {
            by_name.entry(name.clone()).or_default().push(i);
            sigs.push((*params, *has_self));
        }
        CallGraph { by_name, sigs }
    }

    /// Candidate callees for a call site: `name` with `args` arguments,
    /// `method = true` for `.name(...)` syntax.
    pub fn resolve(&self, name: &str, args: usize, method: bool) -> Vec<usize> {
        let Some(ids) = self.by_name.get(name) else {
            return Vec::new();
        };
        ids.iter()
            .copied()
            .filter(|&i| {
                let (params, has_self) = self.sigs[i];
                if method {
                    // Receiver is implicit; arity must match exactly.
                    has_self && params == args
                } else {
                    // Free call, or UFCS `Type::f(recv, ...)` where the
                    // receiver occupies the first argument slot.
                    params == args || (has_self && args > 0 && params == args - 1)
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn method_resolution_requires_self_and_arity() {
        let g = CallGraph::new(&[
            ("split".into(), 2, true),
            ("split".into(), 2, false),
            ("split".into(), 1, true),
        ]);
        assert_eq!(g.resolve("split", 2, true), vec![0]);
    }

    #[test]
    fn free_call_matches_arity_or_ufcs() {
        let g = CallGraph::new(&[("post".into(), 1, true), ("post".into(), 2, false)]);
        // `post(a, b)` free call: matches the 2-param free fn AND the
        // 1-param method via UFCS.
        assert_eq!(g.resolve("post", 2, false), vec![0, 1]);
    }

    #[test]
    fn unknown_name_resolves_to_nothing() {
        let g = CallGraph::new(&[("f".into(), 0, false)]);
        assert!(g.resolve("g", 0, false).is_empty());
    }
}
