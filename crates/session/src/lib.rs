//! # bishop-session
//!
//! Persistent per-session LIF state slots for streamed, stateful serving.
//!
//! A spiking transformer is inherently temporal: LIF membrane potentials
//! evolve across timesteps, so a conversation-style workload wants to
//! *continue* an execution across requests rather than replay it from
//! timestep zero. This crate provides the two pieces the serving stack
//! threads through every layer:
//!
//! * [`SessionState`] — an engine-portable snapshot of a parked execution
//!   (the native engine's full per-layer membrane export, or the
//!   simulator's accumulated-timestep marker);
//! * [`SessionStore`] — a capacity-bounded slab of session slots with TTL
//!   eviction, generation-counted ids, and a lease discipline
//!   ([`SessionStore::begin`] / [`SessionLease`]) so a session can park
//!   between requests and resume into any worker's batch without two
//!   requests racing on the same membranes. A lease checks itself back in:
//!   [`SessionLease::complete`] parks the new state, and dropping the lease
//!   any other way (an error return, a panic unwinding) parks the old one.
//!
//! The store follows web-rwkv's batch-slot packing discipline: slots are a
//! fixed-capacity slab, ids carry a generation counter so a stale id can
//! never resolve to a slot's next occupant, and eviction only ever touches
//! parked (not in-flight) sessions.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use bishop_model::ModelState;

/// A parked execution snapshot, portable across workers.
///
/// All cross-timestep coupling in the model flows through LIF membrane
/// potentials, so this snapshot is sufficient to continue an execution
/// bit-identically to a single longer request.
#[derive(Debug, Clone, PartialEq)]
pub enum SessionState {
    /// Full per-layer membrane potentials and pooled spike history from the
    /// native engine's stepper.
    Native(ModelState),
    /// The simulator replays the workload from its memoized caches, so its
    /// session state is just the number of timesteps already accounted for.
    Simulated {
        /// Timesteps the session has executed so far.
        timesteps_done: usize,
    },
}

impl SessionState {
    /// Timesteps this state has accumulated.
    pub fn timesteps_done(&self) -> usize {
        match self {
            SessionState::Native(state) => state.timesteps_done(),
            SessionState::Simulated { timesteps_done } => *timesteps_done,
        }
    }

    /// Short engine-class label (`"native"` / `"simulated"`) for metrics
    /// and listings.
    pub fn kind(&self) -> &'static str {
        match self {
            SessionState::Native(_) => "native",
            SessionState::Simulated { .. } => "simulated",
        }
    }
}

/// A generation-counted session id.
///
/// The slot index addresses the slab entry; the generation is bumped every
/// time the slot is vacated, so an id held across an eviction can never
/// resolve to the slot's next occupant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SessionId {
    slot: usize,
    generation: u64,
}

impl SessionId {
    /// Slab index of the slot.
    pub fn slot(&self) -> usize {
        self.slot
    }

    /// Generation counter the id was minted at.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Parses the wire form produced by [`fmt::Display`]
    /// (`sess-<slot>-<generation>`).
    pub fn parse(token: &str) -> Option<Self> {
        let rest = token.strip_prefix("sess-")?;
        let (slot, generation) = rest.split_once('-')?;
        Some(Self {
            slot: slot.parse().ok()?,
            generation: generation.parse().ok()?,
        })
    }
}

impl fmt::Display for SessionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sess-{}-{}", self.slot, self.generation)
    }
}

/// Why [`SessionStore`] refused an operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SessionError {
    /// The id does not resolve to a live session (wrong slot, stale
    /// generation, or already evicted).
    NotFound,
    /// The session idled past its TTL; it has been evicted.
    Expired,
    /// The session is currently executing a request; concurrent resume or
    /// eviction would race on its membrane state.
    InFlight,
    /// Every slot is occupied by an in-flight session; nothing can be
    /// evicted to make room.
    CapacityExhausted,
}

impl SessionError {
    /// Stable machine-readable error code (doubles as the gateway's typed
    /// error code).
    pub fn code(&self) -> &'static str {
        match self {
            SessionError::NotFound => "session_not_found",
            SessionError::Expired => "session_expired",
            SessionError::InFlight => "session_in_flight",
            SessionError::CapacityExhausted => "session_capacity",
        }
    }
}

impl fmt::Display for SessionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SessionError::NotFound => write!(f, "session not found or already evicted"),
            SessionError::Expired => write!(f, "session idled past its TTL and was evicted"),
            SessionError::InFlight => write!(f, "session is executing another request"),
            SessionError::CapacityExhausted => {
                write!(f, "all session slots are occupied by in-flight sessions")
            }
        }
    }
}

impl std::error::Error for SessionError {}

/// Configuration of a [`SessionStore`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SessionStoreConfig {
    /// Maximum number of concurrently live sessions.
    pub capacity: usize,
    /// Idle TTL: a session untouched for this long is evictable and any
    /// attempt to resume it is refused as [`SessionError::Expired`].
    pub ttl: Duration,
}

impl Default for SessionStoreConfig {
    fn default() -> Self {
        Self {
            capacity: 64,
            ttl: Duration::from_secs(300),
        }
    }
}

/// Why a session was evicted (the `reason` label of
/// `bishop_sessions_evicted_total`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EvictionReason {
    /// Idle TTL expiry.
    Ttl,
    /// Evicted to make room for a new session under capacity pressure.
    Capacity,
    /// Explicit `DELETE /v1/sessions/<id>`.
    Explicit,
}

/// A session's occupancy entry.
#[derive(Debug)]
struct Occupant {
    model: String,
    engine: String,
    seed: u64,
    state: Option<Arc<SessionState>>,
    timesteps_done: usize,
    in_flight: bool,
    created: Instant,
    last_touch: Instant,
}

#[derive(Debug)]
struct Slot {
    generation: u64,
    occupant: Option<Occupant>,
}

/// Listing entry for one live session (`GET /v1/sessions`).
#[derive(Debug, Clone, PartialEq)]
pub struct SessionSnapshot {
    /// Wire-form session id.
    pub id: String,
    /// Slab slot index.
    pub slot: usize,
    /// Catalog model the session is pinned to.
    pub model: String,
    /// Engine the session is pinned to.
    pub engine: String,
    /// Input seed the session is pinned to.
    pub seed: u64,
    /// Timesteps accumulated so far.
    pub timesteps_done: usize,
    /// Whether a request is currently executing against this session.
    pub in_flight: bool,
    /// Seconds since the session was created.
    pub age_seconds: f64,
    /// Seconds until idle-TTL eviction (0 when already expired).
    pub ttl_remaining_seconds: f64,
}

/// Monotonic counters and the live gauge for `/metrics`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SessionStoreStats {
    /// Currently occupied slots.
    pub active: u64,
    /// Sessions evicted by idle-TTL expiry.
    pub evicted_ttl: u64,
    /// Sessions evicted under capacity pressure.
    pub evicted_capacity: u64,
    /// Sessions evicted by explicit delete.
    pub evicted_explicit: u64,
}

/// An exclusive lease on a session for the duration of one request.
///
/// Obtained from [`SessionStore::begin`]. While a lease is live the session
/// is in-flight: resumes and evictions are refused typed. The lease checks
/// the session back in itself: [`SessionLease::complete`] parks the
/// post-request state, and dropping the lease without completing it — an
/// early error return, a panic unwinding through the holder — parks the
/// previous state unchanged, so the session always stays resumable.
#[derive(Debug)]
pub struct SessionLease {
    store: Arc<SessionStore>,
    id: SessionId,
    model: String,
    engine: String,
    seed: u64,
    state: Option<Arc<SessionState>>,
    timesteps_done: usize,
    /// The state [`SessionLease::complete`] parks on check-in.
    completed: Option<Arc<SessionState>>,
}

impl SessionLease {
    /// The leased session's id.
    pub fn id(&self) -> SessionId {
        self.id
    }

    /// Catalog model the session is pinned to.
    pub fn model(&self) -> &str {
        &self.model
    }

    /// Engine the session is pinned to.
    pub fn engine(&self) -> &str {
        &self.engine
    }

    /// Input seed the session is pinned to.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The parked state to resume from (`None` on a session's first
    /// request).
    pub fn state(&self) -> Option<&Arc<SessionState>> {
        self.state.as_ref()
    }

    /// Timesteps accumulated before this lease.
    pub fn timesteps_done(&self) -> usize {
        self.timesteps_done
    }

    /// Checks the session back in with its post-request state.
    pub fn complete(mut self, state: Arc<SessionState>) {
        self.completed = Some(state);
    }
}

impl Drop for SessionLease {
    fn drop(&mut self) {
        self.store.check_in(self.id, self.completed.take());
    }
}

/// Capacity-bounded slab of session slots with TTL eviction and
/// generation-counted ids.
#[derive(Debug)]
pub struct SessionStore {
    config: SessionStoreConfig,
    slots: Mutex<Vec<Slot>>,
    evicted_ttl: AtomicU64,
    evicted_capacity: AtomicU64,
    evicted_explicit: AtomicU64,
}

impl SessionStore {
    /// Creates an empty store.
    ///
    /// # Panics
    ///
    /// Panics if the configured capacity is zero.
    pub fn new(config: SessionStoreConfig) -> Self {
        assert!(config.capacity > 0, "session store needs at least one slot");
        let slots = (0..config.capacity)
            .map(|_| Slot {
                generation: 0,
                occupant: None,
            })
            .collect();
        Self {
            config,
            slots: Mutex::new(slots),
            evicted_ttl: AtomicU64::new(0),
            evicted_capacity: AtomicU64::new(0),
            evicted_explicit: AtomicU64::new(0),
        }
    }

    /// The store's configuration.
    pub fn config(&self) -> SessionStoreConfig {
        self.config
    }

    /// Creates a fresh session pinned to a model, engine, and input seed.
    ///
    /// The store first sweeps TTL-expired parked sessions; if no slot is
    /// free after that, it evicts the least-recently-touched parked session.
    /// In-flight sessions are never evicted; if every slot is in-flight the
    /// create is refused with [`SessionError::CapacityExhausted`].
    pub fn create(&self, model: &str, engine: &str, seed: u64) -> Result<SessionId, SessionError> {
        let now = Instant::now();
        let mut slots = self.lock_slots();
        self.sweep_expired_locked(&mut slots, now);
        let slot_index = match slots.iter().position(|s| s.occupant.is_none()) {
            Some(free) => free,
            None => {
                // Evict the least-recently-touched parked session.
                let victim = slots
                    .iter()
                    .enumerate()
                    .filter(|(_, s)| s.occupant.as_ref().is_some_and(|o| !o.in_flight))
                    .min_by_key(|(_, s)| s.occupant.as_ref().map(|o| o.last_touch))
                    .map(|(i, _)| i)
                    .ok_or(SessionError::CapacityExhausted)?;
                self.vacate_locked(&mut slots[victim], EvictionReason::Capacity);
                victim
            }
        };
        let slot = &mut slots[slot_index];
        slot.occupant = Some(Occupant {
            model: model.to_string(),
            engine: engine.to_string(),
            seed,
            state: None,
            timesteps_done: 0,
            in_flight: false,
            created: now,
            last_touch: now,
        });
        Ok(SessionId {
            slot: slot_index,
            generation: slot.generation,
        })
    }

    /// Takes an exclusive lease on a parked session for one request.
    ///
    /// Refused typed when the id is stale ([`SessionError::NotFound`]), the
    /// session idled past its TTL ([`SessionError::Expired`] — the session
    /// is evicted as a side effect), or another request is already
    /// executing against it ([`SessionError::InFlight`]).
    pub fn begin(self: &Arc<Self>, id: SessionId) -> Result<SessionLease, SessionError> {
        let now = Instant::now();
        let mut slots = self.lock_slots();
        let slot = slots.get_mut(id.slot).ok_or(SessionError::NotFound)?;
        if slot.generation != id.generation || slot.occupant.is_none() {
            return Err(SessionError::NotFound);
        }
        let occupant = slot.occupant.as_mut().expect("checked occupancy");
        if occupant.in_flight {
            return Err(SessionError::InFlight);
        }
        if now.duration_since(occupant.last_touch) > self.config.ttl {
            self.vacate_locked(slot, EvictionReason::Ttl);
            return Err(SessionError::Expired);
        }
        occupant.in_flight = true;
        occupant.last_touch = now;
        Ok(SessionLease {
            store: Arc::clone(self),
            id,
            model: occupant.model.clone(),
            engine: occupant.engine.clone(),
            seed: occupant.seed,
            state: occupant.state.clone(),
            timesteps_done: occupant.timesteps_done,
            completed: None,
        })
    }

    /// Checks a leased session back in: with its post-request state when
    /// the request completed, unchanged otherwise. Runs from
    /// [`SessionLease`]'s `Drop`, possibly while a panic unwinds, so it
    /// must not panic itself.
    fn check_in(&self, id: SessionId, state: Option<Arc<SessionState>>) {
        let mut slots = self.lock_slots();
        if let Some(occupant) = Self::leased_occupant_locked(&mut slots, id) {
            if let Some(state) = state {
                occupant.timesteps_done = state.timesteps_done();
                occupant.state = Some(state);
            }
            occupant.in_flight = false;
            occupant.last_touch = Instant::now();
        }
    }

    /// Explicitly evicts a parked session (`DELETE /v1/sessions/<id>`).
    pub fn evict(&self, id: SessionId) -> Result<(), SessionError> {
        let mut slots = self.lock_slots();
        let slot = slots.get_mut(id.slot).ok_or(SessionError::NotFound)?;
        if slot.generation != id.generation || slot.occupant.is_none() {
            return Err(SessionError::NotFound);
        }
        if slot.occupant.as_ref().is_some_and(|o| o.in_flight) {
            return Err(SessionError::InFlight);
        }
        self.vacate_locked(slot, EvictionReason::Explicit);
        Ok(())
    }

    /// Sweeps TTL-expired parked sessions (also runs implicitly on
    /// [`SessionStore::create`]). Returns how many sessions were evicted.
    pub fn sweep(&self) -> usize {
        let now = Instant::now();
        let mut slots = self.lock_slots();
        self.sweep_expired_locked(&mut slots, now)
    }

    /// Lists all live sessions (`GET /v1/sessions`).
    pub fn snapshot(&self) -> Vec<SessionSnapshot> {
        let now = Instant::now();
        let slots = self.lock_slots();
        slots
            .iter()
            .enumerate()
            .filter_map(|(index, slot)| {
                let occupant = slot.occupant.as_ref()?;
                let idle = now.duration_since(occupant.last_touch);
                let remaining = self.config.ttl.saturating_sub(idle);
                Some(SessionSnapshot {
                    id: SessionId {
                        slot: index,
                        generation: slot.generation,
                    }
                    .to_string(),
                    slot: index,
                    model: occupant.model.clone(),
                    engine: occupant.engine.clone(),
                    seed: occupant.seed,
                    timesteps_done: occupant.timesteps_done,
                    in_flight: occupant.in_flight,
                    age_seconds: now.duration_since(occupant.created).as_secs_f64(),
                    ttl_remaining_seconds: remaining.as_secs_f64(),
                })
            })
            .collect()
    }

    /// Live gauge and eviction counters for `/metrics`.
    pub fn stats(&self) -> SessionStoreStats {
        let active = {
            let slots = self.lock_slots();
            slots.iter().filter(|s| s.occupant.is_some()).count() as u64
        };
        SessionStoreStats {
            active,
            evicted_ttl: self.evicted_ttl.load(Ordering::Relaxed),
            evicted_capacity: self.evicted_capacity.load(Ordering::Relaxed),
            evicted_explicit: self.evicted_explicit.load(Ordering::Relaxed),
        }
    }

    fn leased_occupant_locked(slots: &mut [Slot], id: SessionId) -> Option<&mut Occupant> {
        let slot = slots.get_mut(id.slot)?;
        if slot.generation != id.generation {
            return None;
        }
        slot.occupant.as_mut().filter(|o| o.in_flight)
    }

    /// The slot table. A panic while the lock was held cannot leave a slot
    /// half-written (every critical section mutates whole fields), so a
    /// poisoned lock is recovered rather than propagated — lease check-in
    /// runs during unwinding and must never panic.
    fn lock_slots(&self) -> MutexGuard<'_, Vec<Slot>> {
        self.slots.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn sweep_expired_locked(&self, slots: &mut [Slot], now: Instant) -> usize {
        let mut evicted = 0;
        for slot in slots.iter_mut() {
            let expired = slot.occupant.as_ref().is_some_and(|o| {
                !o.in_flight && now.duration_since(o.last_touch) > self.config.ttl
            });
            if expired {
                self.vacate_locked(slot, EvictionReason::Ttl);
                evicted += 1;
            }
        }
        evicted
    }

    /// Empties a slot and bumps its generation so outstanding ids for the
    /// old occupant can never resolve again.
    fn vacate_locked(&self, slot: &mut Slot, reason: EvictionReason) {
        debug_assert!(slot.occupant.is_some(), "vacating an empty slot");
        slot.occupant = None;
        slot.generation += 1;
        let counter = match reason {
            EvictionReason::Ttl => &self.evicted_ttl,
            EvictionReason::Capacity => &self.evicted_capacity,
            EvictionReason::Explicit => &self.evicted_explicit,
        };
        counter.fetch_add(1, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread::sleep;

    fn store(capacity: usize, ttl: Duration) -> Arc<SessionStore> {
        Arc::new(SessionStore::new(SessionStoreConfig { capacity, ttl }))
    }

    fn begin_err(store: &Arc<SessionStore>, id: SessionId) -> SessionError {
        store
            .begin(id)
            .map(|_| ())
            .expect_err("expected a typed refusal")
    }

    fn sim_state(timesteps: usize) -> Arc<SessionState> {
        Arc::new(SessionState::Simulated {
            timesteps_done: timesteps,
        })
    }

    #[test]
    fn create_begin_complete_roundtrip() {
        let store = store(4, Duration::from_secs(60));
        let id = store.create("tiny", "native", 7).unwrap();
        let lease = store.begin(id).unwrap();
        assert_eq!(lease.model(), "tiny");
        assert_eq!(lease.engine(), "native");
        assert_eq!(lease.seed(), 7);
        assert!(lease.state().is_none(), "fresh session has no parked state");
        lease.complete(sim_state(4));

        let lease = store.begin(id).unwrap();
        assert_eq!(lease.timesteps_done(), 4);
        assert_eq!(lease.state().unwrap().timesteps_done(), 4);
        drop(lease);
        // Dropping a lease keeps the previously parked state resumable.
        let lease = store.begin(id).unwrap();
        assert_eq!(lease.timesteps_done(), 4);
        lease.complete(sim_state(8));
        assert_eq!(store.stats().active, 1);
    }

    #[test]
    fn dropped_leases_check_the_session_in_unchanged() {
        let store = store(2, Duration::from_secs(60));
        let id = store.create("tiny", "native", 3).unwrap();
        store.begin(id).unwrap().complete(sim_state(4));
        let parked = |store: &Arc<SessionStore>| {
            let lease = store.begin(id).expect("session is resumable");
            (lease.timesteps_done(), lease.state().cloned())
        };
        let before = parked(&store);
        assert_eq!(before, (4, Some(sim_state(4))));

        // Dropped without `complete`: an early error return.
        drop(store.begin(id).unwrap());
        assert_eq!(parked(&store), before);

        // Dropped while a panic unwinds through the lease holder.
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _lease = store.begin(id).unwrap();
            panic!("request handler died mid-request");
        }));
        assert!(unwound.is_err());
        assert_eq!(parked(&store), before);
        let listing = store.snapshot();
        assert!(!listing[0].in_flight);
        assert_eq!(listing[0].timesteps_done, 4);
        // Parked again, so explicit eviction is allowed.
        assert_eq!(store.evict(id), Ok(()));
    }

    #[test]
    fn a_poisoned_store_still_checks_leases_in() {
        let store = store(2, Duration::from_secs(60));
        let id = store.create("tiny", "native", 3).unwrap();
        let lease = store.begin(id).unwrap();
        let poisoner = Arc::clone(&store);
        let poisoned = std::thread::spawn(move || {
            let _slots = poisoner.slots.lock().unwrap();
            panic!("poison the slot table");
        })
        .join();
        assert!(poisoned.is_err());
        assert!(store.slots.is_poisoned());
        // Check-in recovers the lock instead of panicking in `Drop`.
        lease.complete(sim_state(2));
        assert_eq!(store.begin(id).unwrap().timesteps_done(), 2);
    }

    #[test]
    fn session_id_wire_form_roundtrips() {
        let id = SessionId {
            slot: 3,
            generation: 17,
        };
        assert_eq!(id.to_string(), "sess-3-17");
        assert_eq!(SessionId::parse("sess-3-17"), Some(id));
        assert_eq!(SessionId::parse("sess-3"), None);
        assert_eq!(SessionId::parse("nope-3-17"), None);
        assert_eq!(SessionId::parse("sess-x-17"), None);
    }

    #[test]
    fn in_flight_sessions_refuse_concurrent_resume_and_eviction() {
        let store = store(2, Duration::from_secs(60));
        let id = store.create("tiny", "native", 1).unwrap();
        let lease = store.begin(id).unwrap();
        assert_eq!(begin_err(&store, id), SessionError::InFlight);
        assert_eq!(store.evict(id), Err(SessionError::InFlight));
        lease.complete(sim_state(2));
        assert!(store.begin(id).is_ok());
    }

    #[test]
    fn ttl_expiry_is_refused_typed_and_evicts() {
        let store = store(2, Duration::from_millis(1));
        let id = store.create("tiny", "simulator", 1).unwrap();
        sleep(Duration::from_millis(5));
        assert_eq!(begin_err(&store, id), SessionError::Expired);
        assert_eq!(SessionError::Expired.code(), "session_expired");
        // The expired session is gone: the id no longer resolves at all.
        assert_eq!(begin_err(&store, id), SessionError::NotFound);
        assert_eq!(store.stats().evicted_ttl, 1);
        assert_eq!(store.stats().active, 0);
    }

    #[test]
    fn ttl_is_measured_from_last_touch_not_creation() {
        let store = store(2, Duration::from_millis(40));
        let id = store.create("tiny", "simulator", 1).unwrap();
        // Keep touching the session more often than the TTL.
        for step in 1..=3 {
            sleep(Duration::from_millis(10));
            let lease = store.begin(id).expect("session stays live while used");
            lease.complete(sim_state(step));
        }
    }

    #[test]
    fn capacity_pressure_evicts_only_parked_sessions() {
        let store = store(2, Duration::from_secs(60));
        let oldest = store.create("tiny", "native", 1).unwrap();
        sleep(Duration::from_millis(2));
        let busy = store.create("tiny", "native", 2).unwrap();
        let busy_lease = store.begin(busy).unwrap();

        // `oldest` is parked and least-recently-touched, so it is the
        // victim even though `busy` is older by last-touch after begin().
        let newcomer = store.create("tiny", "native", 3).unwrap();
        assert_eq!(begin_err(&store, oldest), SessionError::NotFound);
        assert_eq!(store.stats().evicted_capacity, 1);

        // Now both slots hold an in-flight session and a parked newcomer;
        // lease the newcomer too and the store must refuse to make room.
        let newcomer_lease = store.begin(newcomer).unwrap();
        assert_eq!(
            store
                .create("tiny", "native", 4)
                .expect_err("store is saturated"),
            SessionError::CapacityExhausted
        );
        busy_lease.complete(sim_state(1));
        newcomer_lease.complete(sim_state(1));
        // With a parked session available, creation succeeds again.
        assert!(store.create("tiny", "native", 5).is_ok());
    }

    #[test]
    fn generations_make_stale_ids_unresolvable() {
        let store = store(1, Duration::from_secs(60));
        let first = store.create("tiny", "native", 1).unwrap();
        store.evict(first).unwrap();
        // The slot is reused by a new session with a bumped generation.
        let second = store.create("tiny", "native", 2).unwrap();
        assert_eq!(first.slot(), second.slot());
        assert_ne!(first.generation(), second.generation());
        assert_eq!(begin_err(&store, first), SessionError::NotFound);
        assert_eq!(store.evict(first), Err(SessionError::NotFound));
        assert!(store.begin(second).is_ok());
    }

    #[test]
    fn explicit_eviction_counts_and_clears() {
        let store = store(2, Duration::from_secs(60));
        let id = store.create("tiny", "simulator", 9).unwrap();
        store.evict(id).unwrap();
        let stats = store.stats();
        assert_eq!(stats.evicted_explicit, 1);
        assert_eq!(stats.active, 0);
        assert_eq!(store.evict(id), Err(SessionError::NotFound));
    }

    #[test]
    fn snapshot_reports_occupancy_and_ttl() {
        let store = store(3, Duration::from_secs(60));
        let id = store.create("cifar10-serve", "native", 11).unwrap();
        let lease = store.begin(id).unwrap();
        let listing = store.snapshot();
        assert_eq!(listing.len(), 1);
        let entry = &listing[0];
        assert_eq!(entry.id, id.to_string());
        assert_eq!(entry.model, "cifar10-serve");
        assert_eq!(entry.engine, "native");
        assert_eq!(entry.seed, 11);
        assert!(entry.in_flight);
        assert!(entry.ttl_remaining_seconds > 0.0);
        assert!(entry.ttl_remaining_seconds <= 60.0);
        lease.complete(sim_state(4));
        let listing = store.snapshot();
        assert!(!listing[0].in_flight);
        assert_eq!(listing[0].timesteps_done, 4);
    }

    #[test]
    fn sweep_evicts_expired_parked_sessions() {
        let store = store(4, Duration::from_millis(1));
        store.create("tiny", "native", 1).unwrap();
        let busy = store.create("tiny", "native", 2).unwrap();
        let lease = store.begin(busy).unwrap();
        sleep(Duration::from_millis(5));
        assert_eq!(store.sweep(), 1, "only the parked session is swept");
        assert_eq!(store.stats().active, 1);
        lease.complete(sim_state(1));
    }

    #[test]
    fn session_state_reports_timesteps() {
        assert_eq!(sim_state(6).timesteps_done(), 6);
        assert_eq!(sim_state(6).kind(), "simulated");
    }

    #[test]
    #[should_panic(expected = "at least one slot")]
    fn zero_capacity_is_rejected() {
        SessionStore::new(SessionStoreConfig {
            capacity: 0,
            ttl: Duration::from_secs(1),
        });
    }
}
