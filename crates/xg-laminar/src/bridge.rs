//! Bridging raw CSPOT logs into Laminar values.
//!
//! The telemetry pipeline appends plain little-endian `f64` elements to
//! CSPOT logs (one per report); Laminar programs consume `F64Vec` windows.
//! This module is the seam between the two: reading scalar series and
//! sliding windows out of a log, which `xg-fabric` injects into the
//! change-detection graph one epoch per duty cycle — the deployment
//! pattern §3.7 describes, where "the Laminar program components can be
//! deployed either within the private 5G network or at UCSB in any
//! combination".

use crate::error::{LaminarError, Result};
use xg_cspot::node::CspotNode;

/// Read the most recent `n` little-endian `f64` elements of a log, oldest
/// first. Elements must be at least 8 bytes (extra bytes are ignored).
pub fn read_f64_series(node: &CspotNode, log: &str, n: usize) -> Result<Vec<f64>> {
    let log = node.log(log)?;
    log.tail(n)
        .into_iter()
        .map(|(_, bytes)| decode_f64(&bytes))
        .collect()
}

/// The first 8 bytes of an element as a little-endian `f64`.
fn decode_f64(bytes: &[u8]) -> Result<f64> {
    bytes
        .get(..8)
        .and_then(|b| b.try_into().ok())
        .map(f64::from_le_bytes)
        .ok_or_else(|| LaminarError::Codec("element shorter than 8 bytes".into()))
}

/// The two most recent adjacent windows of a series: `(previous, recent)`.
///
/// Returns `None` until the log holds at least `2 * window` samples. The
/// samples are decoded in place, newest first, straight into the two
/// windows.
pub fn latest_windows(
    node: &CspotNode,
    log: &str,
    window: usize,
) -> Result<Option<(Vec<f64>, Vec<f64>)>> {
    let log = node.log(log)?;
    if log.len() < 2 * window {
        return Ok(None);
    }
    let (mut prev, mut recent) = (vec![0.0; window], vec![0.0; window]);
    let mut slots = recent.iter_mut().rev().chain(prev.iter_mut().rev());
    log.scan_newest_first(|_, bytes| match slots.next() {
        Some(slot) => decode_f64(bytes).map(|x| *slot = x).err().map(Err),
        None => Some(Ok(())),
    })
    .transpose()?;
    Ok(Some((prev, recent)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn node_with_log() -> Arc<CspotNode> {
        let node = Arc::new(CspotNode::in_memory("UCSB"));
        node.create_log("wind", 8, 256).unwrap();
        node
    }

    #[test]
    fn series_roundtrip_and_order() {
        let node = node_with_log();
        for v in [1.0f64, 2.0, 3.0, 4.0] {
            node.put("wind", &v.to_le_bytes()).unwrap();
        }
        assert_eq!(
            read_f64_series(&node, "wind", 3).unwrap(),
            vec![2.0, 3.0, 4.0]
        );
        assert_eq!(read_f64_series(&node, "wind", 99).unwrap().len(), 4);
    }

    #[test]
    fn windows_need_enough_history() {
        let node = node_with_log();
        for v in 0..11 {
            node.put("wind", &f64::from(v).to_le_bytes()).unwrap();
        }
        assert!(latest_windows(&node, "wind", 6).unwrap().is_none());
        node.put("wind", &11.0f64.to_le_bytes()).unwrap();
        let (prev, recent) = latest_windows(&node, "wind", 6).unwrap().unwrap();
        assert_eq!(prev, vec![0.0, 1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(recent, vec![6.0, 7.0, 8.0, 9.0, 10.0, 11.0]);
        // Older history is left unread.
        node.put("wind", &12.0f64.to_le_bytes()).unwrap();
        let (prev, recent) = latest_windows(&node, "wind", 6).unwrap().unwrap();
        assert_eq!(prev, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(recent, vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
    }

    #[test]
    fn short_elements_rejected() {
        let node = Arc::new(CspotNode::in_memory("UCSB"));
        node.create_log("tiny", 4, 16).unwrap();
        node.put("tiny", &[1, 2, 3, 4]).unwrap();
        assert!(matches!(
            read_f64_series(&node, "tiny", 1),
            Err(LaminarError::Codec(_))
        ));
        node.put("tiny", &[5, 6, 7, 8]).unwrap();
        assert!(matches!(
            latest_windows(&node, "tiny", 1),
            Err(LaminarError::Codec(_))
        ));
    }
}
