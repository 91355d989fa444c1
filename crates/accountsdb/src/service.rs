//! The background flush service: a single worker thread that drains the
//! flush queue into storage files so the driver never pays flush I/O on
//! the critical path. Reads never wait for it: absorb already wrote every
//! value into the index.
//!
//! Requests are *coalesced*: if the driver outruns the disk and several
//! flush requests queue up, the worker collapses them into one flush at
//! the highest requested height — exactly what an LSM-style write buffer
//! wants.

use crate::db::AccountsDb;
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;

enum Cmd {
    /// Flush everything at or below the given height.
    Flush(u64),
    /// Flush everything and reply when the queue is drained.
    Quiesce(Sender<()>),
}

/// Handle to the flush worker. Dropping it stops the thread after the
/// queued work completes.
#[derive(Debug)]
pub struct FlushService {
    tx: Sender<Cmd>,
    worker: Option<JoinHandle<()>>,
}

impl FlushService {
    /// Spawns the worker thread over a shared store handle.
    pub fn start(db: Arc<AccountsDb>) -> FlushService {
        let (tx, rx) = mpsc::channel();
        let worker = std::thread::Builder::new()
            .name("accountsdb-flush".into())
            .spawn(move || worker_loop(&db, &rx))
            .expect("spawn flush worker");
        FlushService {
            tx,
            worker: Some(worker),
        }
    }

    /// Queues a flush of everything at or below `up_to`. Non-blocking;
    /// consecutive requests coalesce into one flush at the highest height.
    pub fn request_flush(&self, up_to: u64) {
        let _ = self.tx.send(Cmd::Flush(up_to));
    }

    /// Flushes everything absorbed so far and blocks until the queue is
    /// drained — the barrier to take before a snapshot or shutdown.
    pub fn quiesce(&self) {
        let (reply_tx, reply_rx) = mpsc::channel();
        if self.tx.send(Cmd::Quiesce(reply_tx)).is_ok() {
            let _ = reply_rx.recv();
        }
    }
}

impl Drop for FlushService {
    fn drop(&mut self) {
        // Closing the channel ends the worker loop once queued work is
        // done; pending flushes still run.
        let (tx, _) = mpsc::channel();
        drop(std::mem::replace(&mut self.tx, tx));
        if let Some(worker) = self.worker.take() {
            let _ = worker.join();
        }
    }
}

fn worker_loop(db: &AccountsDb, rx: &Receiver<Cmd>) {
    while let Ok(cmd) = rx.recv() {
        let mut up_to = 0u64;
        let mut reply: Option<Sender<()>> = None;
        let apply = |cmd: Cmd, up_to: &mut u64, reply: &mut Option<Sender<()>>| match cmd {
            Cmd::Flush(h) => *up_to = (*up_to).max(h),
            Cmd::Quiesce(tx) => {
                *up_to = u64::MAX;
                *reply = Some(tx);
            }
        };
        apply(cmd, &mut up_to, &mut reply);
        // Coalesce whatever else is already queued.
        while let Ok(cmd) = rx.try_recv() {
            apply(cmd, &mut up_to, &mut reply);
        }
        db.flush_up_to(up_to).expect("background flush failed");
        if let Some(tx) = reply {
            let _ = tx.send(());
        }
    }
}
