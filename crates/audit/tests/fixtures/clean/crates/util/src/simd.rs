//! Fixture for the `unsafe-block` inventory: the single unsafe site below
//! carries an adjacent SAFETY comment, so it must land in the inventory
//! and produce no finding.

pub fn read_lane(p: *const u8) -> u8 {
    // SAFETY: fixture callers pass a valid pointer; this site exercises
    // the unsafe inventory path (SAFETY comment present, no finding).
    unsafe { *p }
}
