//! CL005 fixture: fault code scheduling engine events directly.
pub fn arm<W>(e: &mut Engine<W>, t: SimTime, cb: Handler<W>) {
    e.schedule_at(t, cb, 0);
}
