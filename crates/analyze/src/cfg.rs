//! Control-flow graph lowering for [`crate::parse::Node`] trees.
//!
//! Each function body lowers to a small block graph: `Branch` alternatives
//! fork and re-join, `Loop` bodies get a back edge plus a zero-iteration
//! bypass, `?` forks to both the exit and a continuation, and `return`
//! edges straight to the exit. Scope exits append synthetic
//! [`Event::DropVar`] releases so guard state stays accurate on the
//! fall-through path (early exits conservatively keep guards "held",
//! which is the safe direction for every rule here).

use crate::parse::{Event, Node};

/// One basic block: straight-line events plus successor edges.
#[derive(Debug, Default, Clone)]
pub struct Block {
    /// Events in program order.
    pub events: Vec<Event>,
    /// Successor block indices.
    pub succs: Vec<usize>,
}

/// A function CFG. Block 0 is the entry, block 1 the exit.
#[derive(Debug, Clone)]
pub struct Cfg {
    /// All blocks.
    pub blocks: Vec<Block>,
    /// Entry block index (always 0).
    pub entry: usize,
    /// Exit block index (always 1).
    pub exit: usize,
}

/// Lower a function body to a CFG.
pub fn lower(body: &Node) -> Cfg {
    let mut b = Builder {
        blocks: vec![Block::default(), Block::default()],
        loops: Vec::new(),
    };
    if let Some(last) = b.go(body, Some(0)) {
        b.edge(last, 1);
    }
    Cfg {
        blocks: b.blocks,
        entry: 0,
        exit: 1,
    }
}

struct Builder {
    blocks: Vec<Block>,
    /// (head, join) of enclosing loops, innermost last.
    loops: Vec<(usize, usize)>,
}

impl Builder {
    fn new_block(&mut self) -> usize {
        self.blocks.push(Block::default());
        self.blocks.len() - 1
    }

    fn edge(&mut self, from: usize, to: usize) {
        if !self.blocks[from].succs.contains(&to) {
            self.blocks[from].succs.push(to);
        }
    }

    /// Lower `node` with current block `cur`; returns the block control
    /// falls through to, or `None` if all paths diverge.
    fn go(&mut self, node: &Node, cur: Option<usize>) -> Option<usize> {
        let cur = cur?;
        match node {
            Node::Seq(items) => {
                let mut c = Some(cur);
                for it in items {
                    c = self.go(it, c);
                    if c.is_none() {
                        // Dead code after a diverging statement: skip.
                        break;
                    }
                }
                c
            }
            Node::Event(e) => {
                self.blocks[cur].events.push(e.clone());
                Some(cur)
            }
            Node::Branch(alts) => {
                let join = self.new_block();
                let mut any = false;
                for alt in alts {
                    let start = self.new_block();
                    self.edge(cur, start);
                    if let Some(end) = self.go(alt, Some(start)) {
                        self.edge(end, join);
                        any = true;
                    }
                }
                any.then_some(join)
            }
            Node::Loop(body) => {
                let head = self.new_block();
                let join = self.new_block();
                self.edge(cur, head);
                self.edge(head, join); // zero iterations
                let bstart = self.new_block();
                self.edge(head, bstart);
                self.loops.push((head, join));
                let bend = self.go(body, Some(bstart));
                self.loops.pop();
                if let Some(e) = bend {
                    self.edge(e, head); // back edge
                }
                Some(join)
            }
            Node::Scope(inner, binds) => {
                let end = self.go(inner, Some(cur))?;
                for v in binds {
                    self.blocks[end]
                        .events
                        .push(Event::DropVar { var: v.clone() });
                }
                Some(end)
            }
            Node::Return => {
                self.edge(cur, 1);
                None
            }
            Node::TryExit => {
                // Error path exits; ok path continues in a fresh block so
                // the exit edge is observable to path-sensitive rules.
                self.edge(cur, 1);
                let cont = self.new_block();
                self.edge(cur, cont);
                Some(cont)
            }
            Node::Break => {
                let target = self.loops.last().map_or(1, |&(_, j)| j);
                self.edge(cur, target);
                None
            }
            Node::Continue => {
                let target = self.loops.last().map_or(1, |&(h, _)| h);
                self.edge(cur, target);
                None
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::FileCx;
    use crate::parse::parse_file;

    fn cfg_of(src: &str) -> Cfg {
        let ast = parse_file(&FileCx::new("crates/core/src/fake.rs", src));
        lower(&ast.fns[0].body)
    }

    /// Blocks reachable from entry.
    fn reachable(c: &Cfg) -> Vec<usize> {
        let mut seen = vec![false; c.blocks.len()];
        let mut stack = vec![c.entry];
        while let Some(b) = stack.pop() {
            if seen[b] {
                continue;
            }
            seen[b] = true;
            stack.extend(c.blocks[b].succs.iter().copied());
        }
        (0..c.blocks.len()).filter(|&i| seen[i]).collect()
    }

    #[test]
    fn straight_line_reaches_exit() {
        let c = cfg_of("fn f(&self) { self.wal.append(r); self.page.mark_dirty(); }");
        assert!(reachable(&c).contains(&c.exit));
    }

    #[test]
    fn branch_has_both_paths() {
        let c = cfg_of("fn f(&self, b: bool) { if b { x.append(r); } else { y.other(); } }");
        // entry forks to two alternative starts.
        let entry_succs = &c.blocks[c.entry].succs;
        assert_eq!(entry_succs.len(), 2);
    }

    #[test]
    fn return_diverges() {
        let c = cfg_of("fn f(&self) { return; }");
        assert!(c.blocks[c.entry].succs.contains(&c.exit));
    }

    #[test]
    fn loop_has_back_edge_and_bypass() {
        let c = cfg_of("fn f(&self, l: &L) { for e in l.iter() { e.step(); } }");
        // Some block must have the loop head as a successor twice-removed;
        // simplest check: a cycle exists among reachable blocks.
        let blocks = reachable(&c);
        let mut cyclic = false;
        for &b in &blocks {
            // DFS from each successor back to b.
            let mut stack: Vec<usize> = c.blocks[b].succs.clone();
            let mut seen = vec![false; c.blocks.len()];
            while let Some(n) = stack.pop() {
                if n == b {
                    cyclic = true;
                    break;
                }
                if !seen[n] {
                    seen[n] = true;
                    stack.extend(c.blocks[n].succs.iter().copied());
                }
            }
        }
        assert!(cyclic, "loop body should produce a CFG cycle");
        assert!(blocks.contains(&c.exit), "zero-iteration bypass missing");
    }

    #[test]
    fn try_exit_forks_to_exit_and_continuation() {
        let c = cfg_of("fn f(&self) -> R<()> { self.wal.append(r)?; self.p.mark_dirty(); Ok(()) }");
        // The block holding the append must have two successors: exit + cont.
        let append_block = c
            .blocks
            .iter()
            .position(|b| {
                b.events
                    .iter()
                    .any(|e| matches!(e, Event::Call { name, .. } if name == "append"))
            })
            .unwrap();
        assert!(c.blocks[append_block].succs.contains(&c.exit));
        assert_eq!(c.blocks[append_block].succs.len(), 2);
    }

    #[test]
    fn scope_exit_emits_implicit_drops() {
        let c = cfg_of("fn f(&self, pin: &Pin) { let g = pin.x(); g.touch(); }");
        let has_implicit = c
            .blocks
            .iter()
            .flat_map(|b| &b.events)
            .any(|e| matches!(e, Event::DropVar { var } if var == "g"));
        assert!(has_implicit);
    }
}
