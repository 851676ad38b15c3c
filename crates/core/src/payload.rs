//! The controller's per-write storage decision, shared by the functional
//! memory model ([`crate::controller`]) and the accelerated line simulator
//! ([`crate::lifetime::linesim`]). One implementation means the two engines
//! can never drift apart on the compress-vs-store-raw choice — and it is
//! allocation-free: payloads land in caller-owned [`PayloadBufs`] instead
//! of per-write `Vec`s.

use crate::heuristic::Decision;
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
}
