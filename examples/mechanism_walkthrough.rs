//! A guided replay of the paper's Fig. 4: the four scenarios of the
//! compression-window mechanism on a single memory line.
//!
//! 1. initial write — the compressed payload lands at the least
//!    significant bytes;
//! 2. steady state — faults inside the window stay within ECP-6's budget;
//! 3. sliding — the 7th fault in the window forces the window to move and
//!    healthy cells replace worn ones;
//! 4. resizing — a larger write-back needs a bigger contiguous region.
//!
//! Run with: `cargo run --release --example mechanism_walkthrough`

use collab_pcm::compress::{compress_best, CompressedWrite, Method};
use collab_pcm::core::line::{ManagedLine, Payload};
use collab_pcm::core::EccChoice;
use collab_pcm::util::Line512;

fn compressible(tag: u8) -> Line512 {
    // Eight small 64-bit values: BDI-compressible to 16 bytes.
    let mut bytes = [0u8; 64];
    for i in 0..8 {
        bytes[i * 8] = tag.wrapping_add(i as u8);
    }
    Line512::from_bytes(&bytes)
}

/// The walkthrough's hard-error scheme.
const ECC: EccChoice = EccChoice::Ecp6;

fn write(line: &mut ManagedLine, data: Line512) -> (usize, usize) {
    let c = compress_best(&data);
    let r = line
        .write(
            ECC,
            Payload {
                method: c.method(),
                bytes: c.bytes(),
            },
            0,
            true,
            1,
        )
        .expect("line still serviceable");
    // Verify the read path end-to-end.
    let (method, bytes) = line.read(ECC).expect("valid");
    let back = collab_pcm::compress::decompress(
        &CompressedWrite::from_parts(method, bytes).expect("consistent"),
    );
    assert_eq!(back, data, "stored data must read back exactly");
    (r.offset, c.size())
}

fn main() {
    // A line whose first 20 cells are about to die (they survive exactly
    // one programming event) — the worn LSB region of Fig. 4's scenario 3.
    let mut endurance = vec![u32::MAX; 512];
    for e in endurance.iter_mut().take(20) {
        *e = 1;
    }
    let mut line = ManagedLine::with_endurance(endurance);

    println!("(1) initial write: compressed payload at the least significant bytes");
    let (offset, size) = write(&mut line, compressible(1));
    println!(
        "    window = [{offset}, {}) bytes, {size}B compressed payload",
        offset + size
    );
    assert_eq!(offset, 0);

    println!("(2) steady state: rewrites wear the window cells; ECP-6 covers early faults");
    for tag in 2..6 {
        write(&mut line, compressible(tag));
    }
    println!(
        "    faults so far: {} (ECP-6 tolerates 6 anywhere)",
        line.faults().count()
    );

    println!("(3) sliding: the weak LSB cells exceed ECP-6's budget inside the window");
    let mut slid_to = 0;
    for tag in 6..30 {
        let (offset, _) = write(&mut line, compressible(tag));
        if offset != 0 {
            slid_to = offset;
            break;
        }
    }
    println!(
        "    window slid to byte {slid_to}; line now tolerates {} faults — more than ECP-6 alone ever could",
        line.faults().count()
    );
    assert!(slid_to > 0, "the window must move off the dead cells");
    assert!(
        line.faults().count() > 6,
        "more faults than plain ECP-6 tolerates"
    );

    println!("(4) resizing: an incompressible write needs the whole line");
    let mut rng = collab_pcm::util::seeded_rng(4);
    let random = Line512::random(&mut rng);
    let c = compress_best(&random);
    assert_eq!(c.method(), Method::Uncompressed);
    match line.write(ECC, Payload { method: c.method(), bytes: c.bytes() }, 0, true, 1) {
        Ok(r) => println!("    64B write stored (offset {}) — fault count still within budget", r.offset),
        Err(e) => println!("    64B write failed ({e}) — the block is dead *for this data*, but a compressible block could still resurrect it"),
    }

    let can_host_small = line.can_host(ECC, 16, 0, true, 1).is_some();
    println!(
        "    resurrection check: a 16B payload {} fit this line",
        if can_host_small { "would" } else { "would not" }
    );
    assert!(
        can_host_small,
        "plenty of healthy cells remain for small payloads"
    );
}
