//! Positive fixture: assert-family macros inside an `Advance` impl, plus
//! two outside it that only the whole-file (queue) scope catches.

pub struct Q;

impl Advance for Q {
    fn advance_to(&mut self, t_ns: u64) -> Result<(), Stall> {
        let ev = self.heap.pop().unwrap();
        assert!(ev.at_ns >= t_ns);
        assert_ne!(ev.source, u32::MAX);
        Ok(())
    }
}

impl Q {
    pub fn next_event(&self) -> Option<u64> {
        assert_eq!(self.len(), 0, "no events");
        None
    }
}

pub fn outside(q: &Q) {
    assert!(q.peek().is_some(), "only the whole-file scope catches this");
}
