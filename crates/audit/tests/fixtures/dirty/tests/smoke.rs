//! Fixture integration test: names every deliberate export, so the only
//! `pub-dead` finding left in this workspace is the orphan export in
//! `crates/core/src/hot.rs`.

#[test]
fn smoke() {
    let _ = (stamp(), wall_secs(), histogram(&[1]), unseeded());
    let _ = (first(&[2]), boom, read_raw, read_lane);
    let _ = (fan_out(&[3]), fire_and_forget());
    let _bank: SharedBank;
    let _fleet: GuardedFleet;
    let _fig = FakeFig;
    let mut xs = Vec::new();
    hot_loop(&mut xs);
    let _ = serve_stream(&xs);
}
