//! The telemetry data path: UNL sensors → 5G → Internet → UCSB repository.
//!
//! Every 5 minutes (the stations' reporting interval) the sensor network's
//! records are appended — via the CSPOT two-phase remote protocol over the
//! calibrated 5G + Internet route — into the telemetry logs at the UCSB
//! repository node. The paper measures this path at 101 ± 17 ms per 1 KB
//! message (Table 1) and notes that even an order-of-magnitude improvement
//! "would be imperceptible end-to-end" against the 300 s duty cycle.

use crate::error::FabricError;
use std::sync::Arc;
use xg_cspot::gateway::Gateway;
use xg_cspot::netsim::{PathModel, RoutePath, SimClock, Topology};
use xg_cspot::node::CspotNode;
use xg_cspot::protocol::{RemoteAppender, RemoteConfig};
use xg_cspot::CspotError;
use xg_sensors::telemetry::TelemetryRecord;

/// Name of the raw-telemetry log at the repository.
pub(crate) const TELEMETRY_LOG: &str = "cups.telemetry";
/// Name of the per-report mean-wind log the change detector reads.
pub(crate) const WIND_LOG: &str = "cups.wind";
/// Name of the results log at the field node (CFD summaries returned to
/// the site operator).
const RESULTS_LOG: &str = "cups.results";
/// History retained in the repository logs (plenty for 30-min windows).
pub(crate) const LOG_HISTORY: usize = 8192;

/// Resolve a paper-topology route or fail with a typed error.
fn route_between(from: &str, to: &str) -> Result<RoutePath, FabricError> {
    let topo = Topology::paper();
    topo.route(from, to)
        .cloned()
        .ok_or_else(|| FabricError::MissingRoute {
            from: from.to_string(),
            to: to.to_string(),
        })
}

/// Name of the field gateway's local telemetry buffer log.
const BUFFER_TELEMETRY_LOG: &str = "gw.telemetry";
/// Name of the field gateway's local mean-wind buffer log.
const BUFFER_WIND_LOG: &str = "gw.wind";

/// One report cycle's outcome at the field gateway.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CycleReport {
    /// Virtual-time transfer latency spent draining this cycle (ms).
    pub latency_ms: f64,
    /// Telemetry records delivered to the repository this cycle (possibly
    /// including backlog from earlier cycles).
    pub delivered: usize,
    /// Records dropped this cycle because the bounded buffer was full.
    pub dropped: usize,
    /// Records still parked locally after the drain.
    pub backlog: usize,
}

/// The delay-tolerant telemetry path: a bounded store-and-forward buffer
/// at the field gateway (§3.1).
///
/// `FieldGateway` appends every record to a durable local buffer first
/// and drains the backlog opportunistically: a partition parks data,
/// reconnection drains it exactly once, and only a full buffer ever
/// drops a record.
pub struct FieldGateway {
    /// The UCSB repository node.
    pub repo: Arc<CspotNode>,
    /// The field node holding the local buffers.
    pub field: Arc<CspotNode>,
    records: Gateway,
    wind: Gateway,
    capacity: usize,
    clock: SimClock,
    /// The uplink as calibrated; every impairment is applied on top of it.
    nominal: RoutePath,
    /// Loss probability of an active packet-loss surge (0 = none).
    surge_loss: f64,
    /// SNR offset of an active fade on the gateway's serving cell (dB).
    fade_db: Option<f64>,
    buffered: u64,
    dropped: u64,
    delivered: u64,
    max_backlog: usize,
}

impl FieldGateway {
    /// Build the gateway over the paper topology's `UNL-5G → UCSB` route.
    ///
    /// `capacity` bounds the number of telemetry records parked locally;
    /// the paper's Raspberry Pi gateways have finite storage, so an
    /// unbounded buffer would be dishonest.
    pub fn new(
        repo: Arc<CspotNode>,
        field: Arc<CspotNode>,
        clock: SimClock,
        seed: u64,
        capacity: usize,
    ) -> Result<Self, FabricError> {
        repo.open_log(TELEMETRY_LOG, TelemetryRecord::WIRE_SIZE, LOG_HISTORY)?;
        repo.open_log(WIND_LOG, 8, LOG_HISTORY)?;
        // Ring capacity above the drop threshold so a full buffer refuses
        // new records instead of silently overwriting parked ones.
        let history = capacity + 16;
        field.open_log(BUFFER_TELEMETRY_LOG, TelemetryRecord::WIRE_SIZE, history)?;
        field.open_log(BUFFER_WIND_LOG, 8, history)?;
        let route = route_between("UNL-5G", "UCSB")?;
        // Fail fast on a dead link: the gateway re-drains next cycle, so
        // burning a long retry budget here would only waste virtual time.
        let cfg = RemoteConfig {
            timeout_ms: 100.0,
            max_attempts: 2,
            ..Default::default()
        };
        let records = Gateway::with_cursor_log(
            Arc::clone(&field),
            BUFFER_TELEMETRY_LOG,
            TELEMETRY_LOG,
            "gw.telemetry.cursor",
            RemoteAppender::new(clock.clone(), route.clone(), cfg.clone(), seed),
        )?;
        let wind = Gateway::with_cursor_log(
            Arc::clone(&field),
            BUFFER_WIND_LOG,
            WIND_LOG,
            "gw.wind.cursor",
            RemoteAppender::new(clock.clone(), route.clone(), cfg, seed ^ 0x57494E44),
        )?;
        Ok(FieldGateway {
            repo,
            field,
            records,
            wind,
            capacity,
            clock,
            nominal: route,
            surge_loss: 0.0,
            fade_db: None,
            buffered: 0,
            dropped: 0,
            delivered: 0,
            max_backlog: 0,
        })
    }

    /// Buffer one cycle's records (and their mean wind) locally, then
    /// drain whatever the current link state allows.
    pub fn ship_cycle(&mut self, records: &[TelemetryRecord]) -> Result<CycleReport, FabricError> {
        let mut dropped_now = 0usize;
        // The buffer ring holds more than `capacity`, so every record
        // accepted below it adds exactly one to the backlog.
        let mut backlog = self.records.backlog();
        for r in records {
            if backlog >= self.capacity {
                dropped_now += 1;
                continue;
            }
            match self.records.buffer(&r.encode()) {
                Ok(_) => {
                    self.buffered += 1;
                    backlog += 1;
                }
                // A local storage fault loses the record; count it rather
                // than aborting the cycle.
                Err(_) => dropped_now += 1,
            }
        }
        if !records.is_empty() && self.wind.backlog() < self.capacity {
            let mean_wind =
                records.iter().map(|r| r.wind_speed_ms).sum::<f64>() / records.len() as f64;
            // A local storage fault loses this cycle's wind sample only.
            let _ = self.wind.buffer(&mean_wind.to_le_bytes());
        }
        self.dropped += dropped_now as u64;
        self.max_backlog = self.max_backlog.max(backlog);
        let start = self.clock.now_ms();
        let repo = Arc::clone(&self.repo);
        let r = self.records.drain(&repo);
        let w = self.wind.drain(&repo);
        self.delivered += r.relayed as u64;
        Ok(CycleReport {
            latency_ms: (self.clock.now_ms() - start).max(r.latency_ms + w.latency_ms),
            delivered: r.relayed,
            dropped: dropped_now,
            backlog: r.remaining,
        })
    }

    /// Telemetry records parked locally, waiting for the link.
    pub(crate) fn backlog(&self) -> usize {
        self.records.backlog()
    }

    /// Records accepted into the buffer so far.
    pub(crate) fn buffered(&self) -> u64 {
        self.buffered
    }

    /// Records dropped at the full buffer (or to local storage faults).
    pub(crate) fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Records delivered to the repository.
    pub(crate) fn delivered(&self) -> u64 {
        self.delivered
    }

    /// Largest backlog observed.
    pub(crate) fn max_backlog(&self) -> usize {
        self.max_backlog
    }

    /// Partition or heal the uplink (both gateway streams).
    pub(crate) fn set_partitioned(&mut self, partitioned: bool) {
        self.records.route_mut().set_partitioned(partitioned);
        self.wind.route_mut().set_partitioned(partitioned);
    }

    /// Inject a packet-loss surge on every segment of the uplink (0 clears
    /// it). A fade on the access segment stays in force.
    pub(crate) fn set_loss(&mut self, loss_prob: f64) {
        self.surge_loss = loss_prob;
        self.relink();
    }

    /// Attach observability to both gateway streams' remote appenders
    /// (per-phase CSPOT append RTTs for every drained element).
    pub(crate) fn set_obs(&mut self, obs: &xg_obs::Obs) {
        self.records.set_obs(obs);
        self.wind.set_obs(obs);
    }

    /// Apply or clear a RAN degradation on the 5G access segment.
    ///
    /// `fade` is the SNR offset in dB (`None` restores the nominal link).
    /// An SNR/MCS collapse shows up at this layer as a much slower first
    /// hop (long serialization at the lowest MCS). Only a *deep* fade
    /// (≤ −20 dB) also loses packets: above that, HARQ retransmissions
    /// recover every transport block and the IP layer sees pure latency.
    /// A packet-loss surge stays in force: the two losses combine as
    /// independent drops.
    pub(crate) fn set_access_degraded(&mut self, fade: Option<f64>) {
        self.fade_db = fade;
        self.relink();
    }

    /// Rebuild both streams' uplinks from the nominal route under the
    /// active surge and fade, keeping each segment's partition state.
    fn relink(&mut self) {
        // Either of two independent drops: exact when one of them is 0.
        let either = |p: f64, q: f64| p + q - p * q;
        for route in [self.records.route_mut(), self.wind.route_mut()] {
            for (seg, nominal) in route.segments.iter_mut().zip(&self.nominal.segments) {
                *seg = PathModel {
                    partitioned: seg.partitioned,
                    loss_prob: either(nominal.loss_prob, self.surge_loss),
                    ..nominal.clone()
                };
            }
            if let (Some(snr_offset_db), Some(access)) = (self.fade_db, route.segments.first_mut())
            {
                access.base_one_way_ms *= 8.0;
                access.jitter_sigma_ms *= 4.0;
                let fade_loss = if snr_offset_db <= -20.0 { 0.25 } else { 0.0 };
                access.loss_prob = either(access.loss_prob, fade_loss);
            }
        }
    }
}

/// The field↔repository link as the fault layer sees it: telemetry up
/// through the gateway, results down the return path. The WAN route or
/// the gateway's serving cell going down severs both directions; the
/// link heals only when both are back.
pub(crate) struct FieldLink {
    pub(crate) gateway: FieldGateway,
    pub(crate) results: ResultsReturn,
    route_down: bool,
    cell_down: bool,
}

impl FieldLink {
    pub(crate) fn new(gateway: FieldGateway, results: ResultsReturn) -> Self {
        FieldLink {
            gateway,
            results,
            route_down: false,
            cell_down: false,
        }
    }

    /// Whether the field is cut off from the repository.
    pub(crate) fn severed(&self) -> bool {
        self.route_down || self.cell_down
    }

    pub(crate) fn set_route_down(&mut self, down: bool) {
        self.route_down = down;
        self.sync();
    }

    pub(crate) fn set_cell_down(&mut self, down: bool) {
        self.cell_down = down;
        self.sync();
    }

    fn sync(&mut self) {
        let severed = self.severed();
        self.gateway.set_partitioned(severed);
        self.results.set_partitioned(severed);
    }
}

/// A CFD result summary returned to the site operator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResultSummary {
    /// Completion time (s).
    pub t_s: f64,
    /// Predicted mean interior wind (m/s).
    pub predicted_wind_ms: f64,
    /// Validity window (s).
    pub validity_s: f64,
    /// Whether a breach is suspected.
    pub breach_suspected: bool,
}

impl ResultSummary {
    /// Fixed wire size of an encoded summary.
    pub(crate) const WIRE_SIZE: usize = 32;

    /// Encode to exactly [`Self::WIRE_SIZE`] bytes.
    pub(crate) fn encode(&self) -> [u8; Self::WIRE_SIZE] {
        let mut out = [0u8; Self::WIRE_SIZE];
        out[0..8].copy_from_slice(&self.t_s.to_le_bytes());
        out[8..16].copy_from_slice(&self.predicted_wind_ms.to_le_bytes());
        out[16..24].copy_from_slice(&self.validity_s.to_le_bytes());
        out[24] = self.breach_suspected as u8;
        out
    }

    /// Decode; `None` on a wrong-length buffer.
    pub(crate) fn decode(bytes: &[u8]) -> Option<ResultSummary> {
        if bytes.len() != Self::WIRE_SIZE {
            return None;
        }
        Some(ResultSummary {
            t_s: f64::from_le_bytes(bytes[0..8].try_into().ok()?),
            predicted_wind_ms: f64::from_le_bytes(bytes[8..16].try_into().ok()?),
            validity_s: f64::from_le_bytes(bytes[16..24].try_into().ok()?),
            breach_suspected: bytes[24] != 0,
        })
    }
}

/// The return data path: CFD summaries shipped from the repository back
/// over the Internet + 5G downlink to the field node at the facility,
/// where the site operator's dashboard reads them.
pub(crate) struct ResultsReturn {
    /// The field node at UNL.
    pub field: Arc<CspotNode>,
    appender: RemoteAppender,
}

impl ResultsReturn {
    /// Build the return path over the paper topology's UCSB → UNL-5G
    /// route (the same physical route as the uplink, traversed back).
    pub(crate) fn new(
        field: Arc<CspotNode>,
        clock: SimClock,
        seed: u64,
    ) -> Result<Self, FabricError> {
        field.open_log(RESULTS_LOG, ResultSummary::WIRE_SIZE, LOG_HISTORY)?;
        let route = route_between("UCSB", "UNL-5G")?;
        let appender = RemoteAppender::new(clock, route, RemoteConfig::default(), seed);
        Ok(ResultsReturn { field, appender })
    }

    /// Partition or heal the downlink route (failure injection).
    pub(crate) fn set_partitioned(&mut self, partitioned: bool) {
        self.appender.route_mut().set_partitioned(partitioned);
    }

    /// Attach observability to the downlink appender.
    pub(crate) fn set_obs(&mut self, obs: &xg_obs::Obs) {
        self.appender.set_obs(obs);
    }

    /// Deliver one result summary to the field node. Returns the transfer
    /// latency (ms, virtual time).
    pub(crate) fn deliver(&mut self, summary: &ResultSummary) -> Result<f64, CspotError> {
        let field = Arc::clone(&self.field);
        let outcome = self
            .appender
            .append(&field, RESULTS_LOG, &summary.encode())?;
        Ok(outcome.latency_ms)
    }

    /// The most recent result visible to the site operator.
    pub(crate) fn latest(&self) -> Option<ResultSummary> {
        let log = self.field.log(RESULTS_LOG).ok()?;
        let seq = log.latest_seq()?;
        ResultSummary::decode(&log.get(seq).ok()?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xg_laminar::bridge::read_f64_series;

    fn record(wind: f64, t: f64) -> TelemetryRecord {
        TelemetryRecord {
            station_id: 0,
            t_s: t,
            wind_speed_ms: wind,
            wind_dir_deg: 300.0,
            temp_c: 22.0,
            rel_humidity: 60.0,
        }
    }

    #[test]
    fn ship_lands_records_in_repo() {
        let (mut fg, repo) = field_gateway(1024);
        let cycle = fg
            .ship_cycle(&[record(3.0, 300.0), record(3.4, 300.0)])
            .unwrap();
        assert!(cycle.latency_ms > 0.0);
        assert_eq!(repo.latest_seq(TELEMETRY_LOG).unwrap(), Some(2));
        assert_eq!(repo.latest_seq(WIND_LOG).unwrap(), Some(1));
        let hist = read_f64_series(&repo, WIND_LOG, 5).unwrap();
        assert_eq!(hist.len(), 1);
        assert!((hist[0] - 3.2).abs() < 1e-12);
    }

    #[test]
    fn per_cycle_latency_matches_table1_scale() {
        // 9 stations + 1 wind summary = 10 messages at ~100 ms each over
        // the 5G route: the "approximately 200 milliseconds" of §4.4 is
        // per-message-pair; a full cycle lands near 1 s — utterly
        // imperceptible against the 300 s duty cycle either way. The
        // gateway's fail-fast `timeout_ms: 100, max_attempts: 2` only
        // bites on a dead link: a healthy cycle measures ~97 ms per
        // message, inside Table 1's band without widening it.
        let (mut fg, _repo) = field_gateway(1024);
        let records: Vec<TelemetryRecord> = (0..9)
            .map(|i| record(3.0 + i as f64 * 0.1, 300.0))
            .collect();
        // First shipment pays connection setup; measure the second.
        fg.ship_cycle(&records).unwrap();
        let latency = fg.ship_cycle(&records).unwrap().latency_ms;
        let per_msg = latency / 10.0;
        assert!(
            per_msg > 60.0 && per_msg < 160.0,
            "per-message latency {per_msg} ms vs paper's 101 ms"
        );
        assert!(latency < 0.01 * 300_000.0, "imperceptible vs duty cycle");
    }

    #[test]
    fn wind_history_ordering() {
        let (mut fg, repo) = field_gateway(1024);
        for w in [1.0, 2.0, 3.0] {
            fg.ship_cycle(&[record(w, 0.0)]).unwrap();
        }
        assert_eq!(read_f64_series(&repo, WIND_LOG, 2).unwrap(), vec![2.0, 3.0]);
        assert_eq!(read_f64_series(&repo, WIND_LOG, 10).unwrap().len(), 3);
    }

    #[test]
    fn result_summary_roundtrip() {
        let r = ResultSummary {
            t_s: 5821.0,
            predicted_wind_ms: 1.12,
            validity_s: 1379.0,
            breach_suspected: true,
        };
        assert_eq!(ResultSummary::decode(&r.encode()), Some(r));
        assert!(ResultSummary::decode(&[0u8; 31]).is_none());
    }

    #[test]
    fn results_return_reaches_field_node() {
        let field = Arc::new(CspotNode::in_memory("UNL"));
        let mut ret = ResultsReturn::new(Arc::clone(&field), SimClock::new(), 7).unwrap();
        assert!(ret.latest().is_none());
        let summary = ResultSummary {
            t_s: 1800.0,
            predicted_wind_ms: 0.9,
            validity_s: 1380.0,
            breach_suspected: false,
        };
        let latency = ret.deliver(&summary).unwrap();
        // Downlink over the same 5G route: ~101 ms + connection setup.
        assert!(latency > 50.0 && latency < 600.0, "{latency}");
        assert_eq!(ret.latest(), Some(summary));
    }

    fn field_gateway(capacity: usize) -> (FieldGateway, Arc<CspotNode>) {
        let repo = Arc::new(CspotNode::in_memory("UCSB"));
        let field = Arc::new(CspotNode::in_memory("UNL"));
        let fg =
            FieldGateway::new(Arc::clone(&repo), field, SimClock::new(), 11, capacity).unwrap();
        (fg, repo)
    }

    #[test]
    fn gateway_parks_data_through_partition_and_drains_on_reconnect() {
        let (mut fg, repo) = field_gateway(1024);
        let cycle = |w: f64| vec![record(w, 0.0), record(w + 0.2, 0.0)];
        let r = fg.ship_cycle(&cycle(1.0)).unwrap();
        assert_eq!(r.delivered, 2);
        assert!(r.latency_ms > 0.0);
        fg.set_partitioned(true);
        for i in 0..3 {
            let r = fg.ship_cycle(&cycle(2.0 + i as f64)).unwrap();
            assert_eq!(r.delivered, 0, "partition blocks delivery");
            assert_eq!(r.dropped, 0, "partition must not lose data");
        }
        assert_eq!(fg.backlog(), 6);
        fg.set_partitioned(false);
        let r = fg.ship_cycle(&cycle(9.0)).unwrap();
        assert_eq!(r.delivered, 8, "backlog plus current cycle drains");
        assert_eq!(r.backlog, 0);
        // 2 from the healthy first cycle + the 8 drained now, no dupes.
        assert_eq!(repo.log(TELEMETRY_LOG).unwrap().len(), 10, "exactly once");
        // Wind means arrive in order despite the outage.
        let hist = read_f64_series(&repo, WIND_LOG, 10).unwrap();
        assert_eq!(hist.len(), 5);
        assert!((hist[0] - 1.1).abs() < 1e-9 && (hist[4] - 9.1).abs() < 1e-9);
        assert_eq!(fg.dropped(), 0);
        assert_eq!(fg.delivered(), fg.buffered());
    }

    #[test]
    fn bounded_buffer_drops_and_counts_when_full() {
        let (mut fg, _repo) = field_gateway(5);
        fg.set_partitioned(true);
        let records: Vec<TelemetryRecord> = (0..3).map(|i| record(1.0 + i as f64, 0.0)).collect();
        fg.ship_cycle(&records).unwrap(); // 3 buffered
        let r = fg.ship_cycle(&records).unwrap(); // 2 buffered, 1 dropped
        assert_eq!(r.dropped, 1);
        let r = fg.ship_cycle(&records).unwrap(); // full: all dropped
        assert_eq!(r.dropped, 3);
        assert_eq!(fg.dropped(), 4);
        assert_eq!(fg.backlog(), 5);
        assert_eq!(fg.max_backlog(), 5);
    }

    #[test]
    fn cycle_reports_sum_to_the_cumulative_counters() {
        // The gateway's counters move only in `ship_cycle`, so each
        // cycle's report is exactly that cycle's delta — through a
        // partition, a full buffer, and the heal that drains it.
        let (mut fg, _repo) = field_gateway(5);
        let records: Vec<TelemetryRecord> = (0..3).map(|i| record(1.0 + i as f64, 0.0)).collect();
        let mut sums = (0, 0);
        let mut ship = |fg: &mut FieldGateway| {
            let r = fg.ship_cycle(&records).unwrap();
            sums = (sums.0 + r.delivered, sums.1 + r.dropped);
        };
        ship(&mut fg);
        fg.set_partitioned(true);
        (0..3).for_each(|_| ship(&mut fg));
        fg.set_partitioned(false);
        (0..2).for_each(|_| ship(&mut fg));
        assert_eq!((sums.0, sums.1), (11, 7));
        assert_eq!(sums.0 as u64, fg.delivered());
        assert_eq!(sums.1 as u64, fg.dropped());
    }

    #[test]
    fn overlapping_surge_and_fade_keep_each_other_in_force() {
        // Per-segment loss of the telemetry stream's uplink, access first.
        fn losses(fg: &mut FieldGateway) -> Vec<f64> {
            let route = fg.records.route_mut();
            route.segments.iter().map(|s| s.loss_prob).collect()
        }
        let (mut fg, _repo) = field_gateway(1024);
        let nominal = fg.nominal.clone();
        let internet = nominal.segments.len() - 1;
        assert!(internet > 0, "the uplink is access + Internet");
        let both = 1.0 - (1.0 - 0.4) * (1.0 - 0.25);
        for surge_clears_first in [true, false] {
            fg.set_loss(0.4);
            fg.set_access_degraded(Some(-25.0));
            let l = losses(&mut fg);
            assert!((l[0] - both).abs() < 1e-12, "{l:?}");
            assert_eq!(l[internet], 0.4);
            if surge_clears_first {
                fg.set_loss(0.0);
                assert_eq!(
                    losses(&mut fg)[..2],
                    [0.25, 0.0],
                    "the fade outlives the surge"
                );
                fg.set_access_degraded(None);
            } else {
                fg.set_access_degraded(None);
                assert_eq!(
                    losses(&mut fg)[..2],
                    [0.4, 0.4],
                    "the surge outlives the fade"
                );
                fg.set_loss(0.0);
            }
            assert_eq!(fg.records.route_mut(), &nominal, "both cleared: nominal");
            assert_eq!(fg.wind.route_mut(), &nominal);
        }
        // The fade's latency penalty rides along with any surge and leaves
        // with the fade.
        fg.set_access_degraded(Some(-10.0));
        fg.set_loss(0.4);
        let access = fg.wind.route_mut().segments[0].clone();
        assert_eq!(
            access.base_one_way_ms,
            nominal.segments[0].base_one_way_ms * 8.0
        );
        assert_eq!(access.loss_prob, 0.4, "a shallow fade adds no loss");
    }

    #[test]
    fn missing_route_is_a_typed_error() {
        // The paper topology has no such site; construction must fail
        // with FabricError::MissingRoute, not a panic.
        let err = route_between("UNL-5G", "NOWHERE").unwrap_err();
        assert!(matches!(err, FabricError::MissingRoute { .. }));
        assert!(err.to_string().contains("NOWHERE"));
    }
}
