//! Positive fixture: panic paths inside an `Advance` impl, plus two
//! outside it that only the whole-file (queue) scope catches.

pub struct Q;

impl Advance for Q {
    fn advance_to(&mut self, t_ns: u64) -> Result<(), Stall> {
        let ev = self.heap.pop().unwrap();
        assert!(ev.at_ns >= t_ns);
        Ok(())
    }
}

impl Q {
    pub fn next_event(&self) -> Option<u64> {
        panic!("no events")
    }
}

pub fn outside(q: &Q) {
    q.peek().expect("only the whole-file scope catches this");
}
