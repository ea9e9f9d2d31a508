//! Streaming JSONL export: a bounded channel into a writer thread.
//!
//! The [`RingRecorder`](crate::RingRecorder) holds a run's events in
//! memory and exports them at the end — fine for paper-scale runs, but a
//! long soak with message-level telemetry (five extra event kinds per
//! setup) outgrows any ring. A [`StreamRecorder`] instead renders each
//! event to one JSON line on a dedicated writer thread, fed through a
//! *bounded* channel. What happens when the writer falls behind is the
//! recorder's [`StreamPolicy`]:
//!
//! * [`StreamPolicy::Block`] (the default) — [`record`] blocks until the
//!   writer catches up: backpressure, never loss. Offline runs want this;
//!   the simulation simply slows to disk speed.
//! * [`StreamPolicy::DropNewest`] — [`record`] never blocks: when the
//!   channel is full the event is discarded and counted in
//!   [`dropped`](StreamRecorder::dropped). A live service wants this; a
//!   slow disk must not stall admission decisions.
//!
//! Under **either** policy, loss is never silent: every event that did not
//! reach the file — a full channel under `DropNewest`, or any policy after
//! the writer thread died on an I/O error — increments the `dropped`
//! counter, so `recorded() == lines written + dropped()` always holds.
//! Consumers export the counter as the `telemetry_dropped` metric.
//!
//! Determinism is unaffected under `Block`: the simulation thread hands
//! events over in recording order and the writer preserves it, so the
//! streamed file is byte-identical to `to_jsonl` over the same run's full
//! event sequence.
//!
//! [`record`]: Recorder::record

use crate::event::{Event, TimedEvent};
use crate::export::event_json;
use crate::recorder::Recorder;
use std::fs::File;
use std::io::{self, BufWriter, Write as _};
use std::path::Path;
use std::sync::mpsc::{sync_channel, SyncSender, TrySendError};
use std::thread::JoinHandle;

/// Default channel capacity (events in flight between simulation and
/// writer) — large enough to ride out short I/O stalls, small enough to
/// bound memory at a few MB.
pub const DEFAULT_STREAM_CAPACITY: usize = 8192;

/// What [`Recorder::record`] does when the bounded channel to the writer
/// thread is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StreamPolicy {
    /// Block until the writer drains a slot: backpressure, never loss.
    #[default]
    Block,
    /// Drop the new event and count it in
    /// [`dropped`](StreamRecorder::dropped): the simulation (or service)
    /// never stalls on telemetry I/O.
    DropNewest,
}

/// A [`Recorder`] that streams events to a JSONL file as they happen.
#[derive(Debug)]
pub struct StreamRecorder {
    tx: Option<SyncSender<TimedEvent>>,
    writer: Option<JoinHandle<io::Result<u64>>>,
    sample_every_secs: Option<f64>,
    recorded: u64,
    policy: StreamPolicy,
    dropped: u64,
}

impl StreamRecorder {
    /// Creates the output file at `path` and spawns the writer thread,
    /// with a channel holding at most `capacity` in-flight events.
    ///
    /// # Errors
    ///
    /// Any I/O error creating the file.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn create(path: &Path, seed: u64, capacity: usize) -> io::Result<Self> {
        assert!(capacity > 0, "stream recorder needs a positive capacity");
        let file = File::create(path)?;
        let (tx, rx) = sync_channel::<TimedEvent>(capacity);
        let writer = std::thread::spawn(move || -> io::Result<u64> {
            let mut out = BufWriter::new(file);
            let mut written = 0u64;
            while let Ok(timed) = rx.recv() {
                out.write_all(event_json(seed, &timed).render().as_bytes())?;
                out.write_all(b"\n")?;
                written += 1;
            }
            out.flush()?;
            Ok(written)
        });
        Ok(StreamRecorder {
            tx: Some(tx),
            writer: Some(writer),
            sample_every_secs: None,
            recorded: 0,
            policy: StreamPolicy::Block,
            dropped: 0,
        })
    }

    /// Creates a stream with the default channel capacity.
    ///
    /// # Errors
    ///
    /// Any I/O error creating the file.
    pub fn create_default(path: &Path, seed: u64) -> io::Result<Self> {
        Self::create(path, seed, DEFAULT_STREAM_CAPACITY)
    }

    /// Enables the periodic link-state sampler at `secs` intervals.
    ///
    /// # Panics
    ///
    /// Panics if `secs` is not positive and finite.
    pub fn with_sample_interval(mut self, secs: f64) -> Self {
        assert!(
            secs.is_finite() && secs > 0.0,
            "sample interval must be positive and finite, got {secs}"
        );
        self.sample_every_secs = Some(secs);
        self
    }

    /// Replaces the full-channel policy (the default is
    /// [`StreamPolicy::Block`]).
    pub fn with_policy(mut self, policy: StreamPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Events handed to [`Recorder::record`] so far (written + dropped).
    #[cfg(test)]
    pub(crate) fn recorded(&self) -> u64 {
        self.recorded
    }

    /// Events that did not reach the file: discarded by
    /// [`StreamPolicy::DropNewest`] on a full channel, or (under either
    /// policy) recorded after the writer thread died on an I/O error.
    /// This is the `telemetry_dropped` metric; it is never silently zero
    /// when lines are missing, because `recorded() == written + dropped()`
    /// is an invariant.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Closes the channel, joins the writer and returns the number of
    /// lines written (equal to `recorded` unless the
    /// writer hit an I/O error mid-run).
    ///
    /// # Errors
    ///
    /// The writer thread's first I/O error, if any.
    pub fn finish(mut self) -> io::Result<u64> {
        drop(self.tx.take());
        match self.writer.take() {
            Some(handle) => handle
                .join()
                .unwrap_or_else(|_| Err(io::Error::other("stream writer thread panicked"))),
            None => Ok(0),
        }
    }
}

impl Recorder for StreamRecorder {
    #[inline]
    fn enabled(&self) -> bool {
        true
    }

    fn record(&mut self, time_secs: f64, event: Event) {
        self.recorded += 1;
        let Some(tx) = &self.tx else {
            // The writer already died on an I/O error; the event cannot
            // reach the file. Account for it — never drop silently.
            self.dropped += 1;
            return;
        };
        let timed = TimedEvent { time_secs, event };
        match self.policy {
            StreamPolicy::Block => {
                // Blocks when the channel is full — backpressure, not
                // loss. A send error means the writer died on an I/O
                // error; count the loss, keep simulating, and surface the
                // error at finish().
                if tx.send(timed).is_err() {
                    self.tx = None;
                    self.dropped += 1;
                }
            }
            StreamPolicy::DropNewest => match tx.try_send(timed) {
                Ok(()) => {}
                Err(TrySendError::Full(_)) => self.dropped += 1,
                Err(TrySendError::Disconnected(_)) => {
                    self.tx = None;
                    self.dropped += 1;
                }
            },
        }
    }

    fn link_sample_interval(&self) -> Option<f64> {
        self.sample_every_secs
    }
}

impl Drop for StreamRecorder {
    /// Best-effort flush when the recorder is dropped without
    /// [`finish`](Self::finish): closes the channel and joins the writer,
    /// discarding its result.
    fn drop(&mut self) {
        drop(self.tx.take());
        if let Some(handle) = self.writer.take() {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::export::to_jsonl;
    use anycast_net::LinkId;

    fn sample(i: u64) -> Event {
        Event::LinkSample {
            link: LinkId::new(i as u32),
            reserved_bps: i,
            capacity_bps: 100,
            flows: 0,
            failed: false,
        }
    }

    fn temp_path(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("anycast-telemetry-{}-{name}", std::process::id()));
        p
    }

    #[test]
    fn streams_byte_identical_to_batch_export() {
        let path = temp_path("stream.jsonl");
        let events: Vec<TimedEvent> = (0..100)
            .map(|i| TimedEvent {
                time_secs: i as f64,
                event: sample(i),
            })
            .collect();
        let mut rec = StreamRecorder::create(&path, 42, 8).unwrap();
        assert!(rec.enabled());
        for ev in &events {
            rec.record(ev.time_secs, ev.event.clone());
        }
        assert_eq!(rec.recorded(), 100);
        assert_eq!(rec.finish().unwrap(), 100);
        let streamed = std::fs::read_to_string(&path).unwrap();
        assert_eq!(streamed, to_jsonl(42, &events));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn tiny_channel_applies_backpressure_without_loss() {
        let path = temp_path("backpressure.jsonl");
        let mut rec = StreamRecorder::create(&path, 7, 1).unwrap();
        for i in 0..500 {
            rec.record(i as f64, sample(i));
        }
        assert_eq!(rec.finish().unwrap(), 500);
        let streamed = std::fs::read_to_string(&path).unwrap();
        assert_eq!(streamed.lines().count(), 500);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn drop_without_finish_still_flushes() {
        let path = temp_path("dropped.jsonl");
        {
            let mut rec = StreamRecorder::create(&path, 1, 4).unwrap();
            rec.record(0.0, sample(0));
        }
        let streamed = std::fs::read_to_string(&path).unwrap();
        assert_eq!(streamed.lines().count(), 1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn sample_interval_builder() {
        let path = temp_path("interval.jsonl");
        let rec = StreamRecorder::create(&path, 1, 4)
            .unwrap()
            .with_sample_interval(30.0);
        assert_eq!(rec.link_sample_interval(), Some(30.0));
        drop(rec);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn block_policy_never_drops() {
        let path = temp_path("block-policy.jsonl");
        let mut rec = StreamRecorder::create(&path, 3, 2)
            .unwrap()
            .with_policy(StreamPolicy::Block);
        for i in 0..300 {
            rec.record(i as f64, sample(i));
        }
        assert_eq!(rec.recorded(), 300);
        assert_eq!(rec.dropped(), 0);
        assert_eq!(rec.finish().unwrap(), 300);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn drop_newest_accounts_for_every_missing_line() {
        // The writer may or may not keep up with the burst; whichever
        // events it misses under DropNewest MUST show up in dropped(), so
        // recorded == written + dropped is exact, not best-effort.
        let path = temp_path("drop-newest.jsonl");
        let mut rec = StreamRecorder::create(&path, 9, 1)
            .unwrap()
            .with_policy(StreamPolicy::DropNewest);
        for i in 0..2_000 {
            rec.record(i as f64, sample(i));
        }
        assert_eq!(rec.recorded(), 2_000);
        let dropped = rec.dropped();
        let written = rec.finish().unwrap();
        assert_eq!(
            written + dropped,
            2_000,
            "every event is either written or counted dropped"
        );
        let streamed = std::fs::read_to_string(&path).unwrap();
        assert_eq!(streamed.lines().count() as u64, written);
        std::fs::remove_file(&path).ok();
    }
}
