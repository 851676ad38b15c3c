//! Fixture for the `unsafe-block` ban: the unsafe block below carries an
//! adjacent SAFETY comment, which exempts nothing, so it must still be a
//! finding.

pub fn read_lane(p: *const u8) -> u8 {
    // SAFETY: fixture callers pass a valid pointer; the comment does not
    // make the block acceptable.
    unsafe { *p }
}
