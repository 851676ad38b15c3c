//! The controller's per-write storage step (paper §III), shared by the
//! functional bank ([`crate::bank`]), the accelerated line simulator
//! ([`crate::lifetime::linesim`]) and the verification churn
//! ([`crate::verify::churn`]), so the engines cannot drift apart on any
//! part of it:
//!
//! 1. [`choose_payload`] compresses the write-back with BEST and applies
//!    the Fig. 8 saturating-counter heuristic, which may store
//!    compressible data raw to save bit flips.
//! 2. [`store`] starts the window at the intra-line rotation offset under
//!    Comp+W and Comp+WF, at byte 0 otherwise. It reverts a raw choice to
//!    the compressed fallback when only the fallback still fits (storing
//!    raw is a flip optimization, never a requirement), then writes:
//!    Comp+WF slides the window past worn cells, and every system places
//!    it on the `window_step` grid.
//! 3. [`revivable`] is Comp+WF's dead-block resurrection check
//!    (§III-A.3), run on the smallest storable form of the incoming data.
//!
//! The step is allocation-free: payloads land in caller-owned
//! [`PayloadBufs`] instead of per-write `Vec`s.

use crate::heuristic::Decision;
use crate::line::{LineDead, LineWriteReport, ManagedLine, Payload};
use crate::system::SystemConfig;
use pcm_compress::{compress_best_into, Method};
use pcm_util::{Line512, DATA_BYTES};

/// Per-block controller metadata carried across writes (mirrored to the
/// LLC, §III-B).
#[derive(Debug, Clone, Copy)]
pub(crate) struct HostMeta {
    /// The Fig. 8 heuristic's saturating counter.
    pub sc: u8,
    /// Compressed size of the previous write-back of this block.
    pub last_size: usize,
}

impl Default for HostMeta {
    fn default() -> Self {
        HostMeta {
            sc: 0,
            last_size: DATA_BYTES,
        }
    }
}

/// Reusable buffers for one storage decision: the chosen payload plus, when
/// the heuristic preferred uncompressed storage of compressible data, the
/// compressed *fallback* the controller reverts to if the full line no
/// longer fits (storing uncompressed is a flip optimization, never a
/// requirement).
#[derive(Debug)]
pub(crate) struct PayloadBufs {
    chosen: [u8; DATA_BYTES],
    chosen_len: usize,
    fallback: [u8; DATA_BYTES],
    fallback_len: usize,
}

impl Default for PayloadBufs {
    fn default() -> Self {
        Self::new()
    }
}

impl PayloadBufs {
    pub fn new() -> Self {
        PayloadBufs {
            chosen: [0; DATA_BYTES],
            chosen_len: 0,
            fallback: [0; DATA_BYTES],
            fallback_len: 0,
        }
    }

    /// The payload selected by the last [`choose_payload`] call.
    pub fn chosen(&self) -> &[u8] {
        &self.chosen[..self.chosen_len]
    }

    /// The compressed fallback payload (valid only when the last
    /// [`choose_payload`] returned a fallback method).
    pub fn fallback(&self) -> &[u8] {
        &self.fallback[..self.fallback_len]
    }
}

/// Chooses compressed vs. uncompressed storage for one write-back.
///
/// Fills `bufs.chosen` with the payload to write and returns the method,
/// the updated per-block metadata, and — when the heuristic chose raw
/// storage of compressible data — the method of the compressed fallback
/// left in `bufs.fallback`.
#[inline]
pub(crate) fn choose_payload(
    cfg: &SystemConfig,
    meta: HostMeta,
    data: &Line512,
    bufs: &mut PayloadBufs,
) -> (Method, HostMeta, Option<Method>) {
    bufs.fallback_len = 0;
    if !cfg.kind.compresses() {
        bufs.chosen.copy_from_slice(&data.to_bytes());
        bufs.chosen_len = DATA_BYTES;
        return (Method::Uncompressed, meta, None);
    }
    let (method, len) = compress_best_into(data, &mut bufs.chosen);
    bufs.chosen_len = len;
    if method == Method::Uncompressed {
        // The selector already materialized the 64 raw bytes in `chosen`.
        return (Method::Uncompressed, meta, None);
    }
    if cfg.use_heuristic {
        let (decision, sc) = cfg.heuristic.decide(len, meta.last_size, meta.sc);
        let new_meta = HostMeta {
            sc,
            last_size: meta.last_size,
        };
        match decision {
            Decision::Compressed => (method, new_meta, None),
            Decision::Uncompressed => {
                bufs.fallback[..len].copy_from_slice(&bufs.chosen[..len]);
                bufs.fallback_len = len;
                bufs.chosen.copy_from_slice(&data.to_bytes());
                bufs.chosen_len = DATA_BYTES;
                (Method::Uncompressed, new_meta, Some(method))
            }
        }
    } else {
        (method, meta, None)
    }
}

/// The window start a write prefers: the intra-line rotation offset on
/// rotating systems, byte 0 otherwise.
pub(crate) fn preferred_offset(sys: &SystemConfig, rotation: usize) -> usize {
    if sys.kind.rotates() {
        rotation
    } else {
        0
    }
}

/// The outcome of one successful [`store`].
#[derive(Debug)]
pub(crate) struct Stored<'a> {
    /// The line-level write report.
    pub report: LineWriteReport,
    /// How the stored bytes are encoded.
    pub method: Method,
    /// The bytes now held in the compression window.
    pub bytes: &'a [u8],
    /// The block's host metadata after this write.
    pub meta: HostMeta,
}

/// Stores one write-back of `data` into `line`: the payload choice, the
/// fallback revert and the write itself (see the module docs).
///
/// `meta` is the block's host metadata before the write and `rotation`
/// the bank's intra-line rotation offset.
///
/// # Errors
///
/// Returns [`LineDead`], leaving the line dead, when the chosen form
/// cannot be stored.
#[inline]
pub(crate) fn store<'a>(
    line: &mut ManagedLine,
    sys: &SystemConfig,
    meta: HostMeta,
    data: &Line512,
    rotation: usize,
    bufs: &'a mut PayloadBufs,
) -> Result<Stored<'a>, LineDead> {
    let (mut method, new_meta, fallback) = choose_payload(sys, meta, data, bufs);
    let bufs: &'a PayloadBufs = bufs;
    let preferred = preferred_offset(sys, rotation);
    let (ecc, slide, step) = (sys.ecc, sys.kind.slides(), sys.window_step);
    let mut bytes = bufs.chosen();
    if let Some(fb_method) = fallback {
        if line
            .can_host(ecc, bytes.len(), preferred, slide, step)
            .is_none()
            && line
                .can_host(ecc, bufs.fallback().len(), preferred, slide, step)
                .is_some()
        {
            bytes = bufs.fallback();
            method = fb_method;
        }
    }
    let report = line.write(ecc, Payload { method, bytes }, preferred, slide, step)?;
    Ok(Stored {
        report,
        method,
        bytes,
        meta: HostMeta {
            sc: new_meta.sc,
            last_size: bytes.len(),
        },
    })
}

/// Comp+WF's dead-block resurrection check: whether the dead `line` can
/// host `data` in its smallest storable form, BEST's output. Any form
/// fitting would do, and the smallest decides for all of them because
/// every scheme's `can_store` is subset-closed: a window that holds a
/// larger form holds a shorter one at the same offset. Systems that do
/// not slide never revive.
pub(crate) fn revivable(
    line: &mut ManagedLine,
    sys: &SystemConfig,
    data: &Line512,
    rotation: usize,
    bufs: &mut PayloadBufs,
) -> bool {
    if !sys.kind.slides() {
        return false;
    }
    let (_, _, fallback) = choose_payload(sys, HostMeta::default(), data, bufs);
    let len = if fallback.is_some() {
        bufs.fallback().len()
    } else {
        bufs.chosen().len()
    };
    let preferred = preferred_offset(sys, rotation);
    line.can_host(sys.ecc, len, preferred, true, sys.window_step)
        .is_some()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::SystemKind;
    use pcm_compress::compress_best;

    #[test]
    fn matches_standalone_selector() {
        let mut rng = pcm_util::seeded_rng(31);
        let mut bufs = PayloadBufs::new();
        let cfg = SystemConfig::new(SystemKind::Comp);
        for _ in 0..64 {
            let line = Line512::random(&mut rng);
            let c = compress_best(&line);
            let (method, _, fb) = choose_payload(&cfg, HostMeta::default(), &line, &mut bufs);
            // Comp (no heuristic) always stores the selector's choice.
            assert_eq!(method, c.method());
            assert_eq!(bufs.chosen(), c.bytes());
            assert!(fb.is_none());
        }
    }

    #[test]
    fn baseline_stores_raw() {
        let mut bufs = PayloadBufs::new();
        let cfg = SystemConfig::new(SystemKind::Baseline);
        let line = Line512::ones();
        let (method, meta, fb) = choose_payload(&cfg, HostMeta::default(), &line, &mut bufs);
        assert_eq!(method, Method::Uncompressed);
        assert_eq!(bufs.chosen(), &line.to_bytes());
        assert_eq!(meta.last_size, DATA_BYTES);
        assert!(fb.is_none());
    }

    #[test]
    fn heuristic_fallback_carries_compressed_form() {
        // Force the volatile-size path: a compressible line whose size
        // differs from last_size pushes the heuristic toward raw storage
        // once the saturating counter is high.
        let cfg = SystemConfig::new(SystemKind::CompWF);
        assert!(cfg.use_heuristic);
        let mut bufs = PayloadBufs::new();
        let line = Line512::zero();
        let mut meta = HostMeta {
            sc: 3,
            last_size: 40,
        };
        let (method, new_meta, fb) = choose_payload(&cfg, meta, &line, &mut bufs);
        if let Some(fb_method) = fb {
            assert_eq!(method, Method::Uncompressed);
            assert_eq!(bufs.chosen().len(), DATA_BYTES);
            let c = compress_best(&line);
            assert_eq!(fb_method, c.method());
            assert_eq!(bufs.fallback(), c.bytes());
        }
        meta = new_meta;
        let _ = meta;
    }

    #[test]
    fn store_reverts_to_the_fallback_only_when_raw_cannot_fit() {
        // Base-8 delta-1 words compress to 16 bytes, and a saturated
        // counter makes the heuristic choose raw storage for them.
        let mut raw = [0u8; DATA_BYTES];
        for (w, word) in raw.chunks_mut(8).enumerate() {
            word.copy_from_slice(&(0x1234_5678_9abc_def0u64 + w as u64).to_le_bytes());
        }
        let data = Line512::from_bytes(&raw);
        let sys = SystemConfig::new(SystemKind::CompWF);
        let meta = HostMeta {
            sc: 3,
            last_size: 16,
        };
        let mut bufs = PayloadBufs::new();
        let mut healthy = ManagedLine::with_endurance(vec![u32::MAX; 512]);
        let s = store(&mut healthy, &sys, meta, &data, 0, &mut bufs).expect("fits");
        assert_eq!(
            (s.method, s.bytes.len()),
            (Method::Uncompressed, DATA_BYTES)
        );
        // Seven faults in bytes 0..7 defeat ECP-6 over the whole line but
        // not a 16-byte window past them.
        let faults = (0..7)
            .map(|i| pcm_util::StuckAt {
                pos: i * 8,
                value: true,
            })
            .collect();
        let mut worn = ManagedLine::with_faults(&faults);
        let s = store(&mut worn, &sys, meta, &data, 0, &mut bufs).expect("fallback fits");
        assert!(s.method.is_compressed() && s.report.slid);
        assert_eq!((s.bytes.len(), s.meta.sc, s.meta.last_size), (16, 3, 16));
        // The resurrection check answers on that smallest form; a raw-only
        // payload or a non-sliding system never revives.
        assert!(revivable(&mut worn, &sys, &data, 0, &mut bufs));
        let random = Line512::random(&mut pcm_util::seeded_rng(32));
        assert!(!revivable(&mut worn, &sys, &random, 0, &mut bufs));
        let comp = SystemConfig::new(SystemKind::Comp);
        assert!(!revivable(&mut worn, &comp, &data, 0, &mut bufs));
    }
}
