//! Bounded broadcast of committed-block events to registered consumers.
//!
//! Each subscriber owns a bounded queue. Publication never blocks on a
//! slow consumer: when a queue is full the oldest event is dropped and
//! counted against that subscriber — backpressure by shedding, with the
//! drop visible to the consumer instead of silently stalling the write
//! pipeline. Lag (how many blocks behind the head a consumer runs) is
//! tracked per subscriber and exported as telemetry.

use crate::obs;
use mtpu_evm::tx::Receipt;
use mtpu_primitives::map::FastMap;
use mtpu_primitives::B256;
use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

/// One committed block, as delivered to subscribers. The root is always
/// present: events are emitted when the pipelined commit resolves, one
/// block behind snapshot publication at steady state.
#[derive(Debug, Clone)]
pub struct BlockEvent {
    /// Block height.
    pub height: u64,
    /// Resolved merkle root of the post-block state.
    pub merkle_root: B256,
    /// Receipts of the block, in transaction order.
    pub receipts: Arc<Vec<Receipt>>,
}

#[derive(Debug, Default)]
struct SubQueue {
    queue: VecDeque<BlockEvent>,
    /// Events shed because the queue was full.
    dropped: u64,
    /// Height of the last event handed to the consumer.
    consumed: u64,
}

#[derive(Debug, Default)]
struct FeedInner {
    subs: FastMap<u64, SubQueue>,
    next_id: u64,
    /// Height of the newest published event.
    head: u64,
}

/// The bounded broadcast hub. Cheap to share: one mutex, short critical
/// sections (a queue push per subscriber).
#[derive(Debug)]
pub struct SubscriptionFeed {
    inner: Mutex<FeedInner>,
    capacity: usize,
}

impl SubscriptionFeed {
    /// A feed whose subscribers each buffer up to `capacity` events
    /// (at least 1).
    pub fn new(capacity: usize) -> Arc<Self> {
        Arc::new(SubscriptionFeed {
            inner: Mutex::new(FeedInner::default()),
            capacity: capacity.max(1),
        })
    }

    /// Registers a consumer; events published from now on are queued for
    /// it. Dropping the [`Subscriber`] unregisters.
    pub fn subscribe(self: &Arc<Self>) -> Subscriber {
        let mut inner = self.inner.lock().expect("feed poisoned");
        let id = inner.next_id;
        inner.next_id += 1;
        let consumed = inner.head;
        inner.subs.insert(
            id,
            SubQueue {
                consumed,
                ..Default::default()
            },
        );
        Subscriber {
            feed: self.clone(),
            id,
        }
    }

    /// Number of registered subscribers.
    pub fn subscriber_count(&self) -> usize {
        self.inner.lock().expect("feed poisoned").subs.len()
    }

    /// Broadcasts one event, shedding the oldest queued event of any
    /// subscriber already at capacity.
    pub fn publish(&self, event: BlockEvent) {
        let mut inner = self.inner.lock().expect("feed poisoned");
        inner.head = event.height;
        let head = inner.head;
        let mut dropped_now = 0u64;
        let mut max_lag = 0u64;
        let capacity = self.capacity;
        for sub in inner.subs.values_mut() {
            if sub.queue.len() >= capacity {
                sub.queue.pop_front();
                sub.dropped += 1;
                dropped_now += 1;
            }
            sub.queue.push_back(event.clone());
            max_lag = max_lag.max(head.saturating_sub(sub.consumed));
        }
        drop(inner);
        if mtpu_telemetry::enabled() {
            let m = obs::metrics();
            if dropped_now > 0 {
                m.feed_dropped.add(dropped_now);
            }
            m.feed_lag.set(max_lag as f64);
        }
    }
}

/// A registered consumer's handle: poll or drain queued events, inspect
/// lag and drops. Unregisters on drop.
#[derive(Debug)]
pub struct Subscriber {
    feed: Arc<SubscriptionFeed>,
    id: u64,
}

impl Subscriber {
    /// The oldest queued event, if any.
    pub fn poll(&self) -> Option<BlockEvent> {
        let mut inner = self.feed.inner.lock().expect("feed poisoned");
        let sub = inner.subs.get_mut(&self.id)?;
        let event = sub.queue.pop_front()?;
        sub.consumed = event.height;
        Some(event)
    }

    /// Every queued event, oldest first.
    pub fn drain(&self) -> Vec<BlockEvent> {
        let mut inner = self.feed.inner.lock().expect("feed poisoned");
        let Some(sub) = inner.subs.get_mut(&self.id) else {
            return Vec::new();
        };
        let events: Vec<BlockEvent> = sub.queue.drain(..).collect();
        if let Some(last) = events.last() {
            sub.consumed = last.height;
        }
        events
    }

    /// Blocks the head has advanced past this consumer's last poll.
    pub fn lag(&self) -> u64 {
        let inner = self.feed.inner.lock().expect("feed poisoned");
        let head = inner.head;
        inner
            .subs
            .get(&self.id)
            .map(|s| head.saturating_sub(s.consumed))
            .unwrap_or(0)
    }

    /// Events shed because this consumer fell more than the queue
    /// capacity behind.
    pub fn dropped(&self) -> u64 {
        let inner = self.feed.inner.lock().expect("feed poisoned");
        inner.subs.get(&self.id).map(|s| s.dropped).unwrap_or(0)
    }
}

impl Drop for Subscriber {
    fn drop(&mut self) {
        if let Ok(mut inner) = self.feed.inner.lock() {
            inner.subs.remove(&self.id);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event(height: u64) -> BlockEvent {
        BlockEvent {
            height,
            merkle_root: B256::ZERO,
            receipts: Arc::new(Vec::new()),
        }
    }

    #[test]
    fn slow_subscriber_sheds_oldest_and_counts_drops() {
        let feed = SubscriptionFeed::new(2);
        let sub = feed.subscribe();
        for h in 1..=5 {
            feed.publish(event(h));
        }
        // Capacity 2: events 1..=3 were shed, 4 and 5 remain.
        assert_eq!(sub.dropped(), 3);
        assert_eq!(sub.lag(), 5);
        let got: Vec<u64> = sub.drain().iter().map(|e| e.height).collect();
        assert_eq!(got, [4, 5]);
        assert_eq!(sub.lag(), 0, "drain catches the consumer up");
        assert!(sub.poll().is_none());
    }

    #[test]
    fn subscribers_are_independent_and_unregister_on_drop() {
        let feed = SubscriptionFeed::new(8);
        let fast = feed.subscribe();
        let slow = feed.subscribe();
        feed.publish(event(1));
        assert_eq!(fast.poll().map(|e| e.height), Some(1));
        feed.publish(event(2));
        assert_eq!(fast.lag(), 1);
        assert_eq!(slow.lag(), 2);
        assert_eq!(slow.drain().len(), 2);

        assert_eq!(feed.subscriber_count(), 2);
        drop(slow);
        assert_eq!(feed.subscriber_count(), 1);
        feed.publish(event(3));
        assert_eq!(fast.drain().len(), 2);
    }

    #[test]
    fn late_subscriber_starts_at_the_head() {
        let feed = SubscriptionFeed::new(4);
        feed.publish(event(1));
        feed.publish(event(2));
        let sub = feed.subscribe();
        assert_eq!(sub.lag(), 0, "no phantom lag for missed history");
        assert!(sub.poll().is_none());
        feed.publish(event(3));
        assert_eq!(sub.poll().map(|e| e.height), Some(3));
    }
}
