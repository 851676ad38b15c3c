//! Fixture integration test: `tests/` trees are outside the panic
//! policy, so the bare unwrap() below must not fire — and naming every
//! deliberate export here keeps `pub-dead` silent on this workspace.

#[test]
fn smoke() {
    let v: Vec<u64> = vec![1, 2, 3];
    assert_eq!(v.first().copied().unwrap(), 1);
    let _ = (describe(), raw_mentions(), pragma_lookalike());
    let _ = (thread_prose(), lane_prose(), ownership_prose());
    let _ = (counts(&v), head(&v), head_unchecked(&v), snapshot(&v));
    let _figs = (CleanFig, RivalFig);
    let mut acc = 0;
    let mut out = cold_setup();
    hot_loop(&mut acc, &mut out);
    let _ = serve_stream(&[1]);
}
