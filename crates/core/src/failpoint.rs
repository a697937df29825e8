//! Deterministic failpoint injection for chaos testing.
//!
//! A *failpoint* is a named site in production code where the test
//! harness can inject a fault: a panic, a delay, or an I/O error. Sites
//! are compiled in only under the `failpoints` cargo feature — without
//! it every entry point in this module is an inlined no-op, so release
//! builds carry zero overhead and zero injected behavior.
//!
//! Determinism is the design constraint: the whole plan is driven by an
//! explicit seed and per-site hit counters, never by wall-clock time or
//! ambient randomness, so a chaos run replays identically. The faults a
//! site fires are a pure function of `(seed, site name, hit index)`;
//! thread interleaving can change *which worker* observes a fault but
//! never *how many* faults fire or at which hit indices.
//!
//! ```ignore
//! lightmirm_core::failpoint::configure(42);
//! lightmirm_core::failpoint::set(
//!     "serve::score_batch",
//!     FailMode::FirstK { k: 2, fault: Fault::Panic },
//! );
//! // ... drive the system; exactly two scoring dispatches panic ...
//! lightmirm_core::failpoint::clear();
//! ```

/// The injected behavior when a site fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Panic at the site (caught by the component's recovery path).
    Panic,
    /// Sleep this many milliseconds before continuing.
    Delay(u64),
    /// Surface an injected `std::io::Error` from the site.
    IoError,
}

/// When a configured site fires its fault.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FailMode {
    /// Never fire (same as removing the site's configuration).
    Off,
    /// Fire on every hit.
    Always(Fault),
    /// Fire on the first `k` hits, then go quiet.
    FirstK { k: u64, fault: Fault },
    /// Fire on every `n`-th hit (1-indexed: hits n, 2n, 3n, …).
    Every { n: u64, fault: Fault },
    /// Fire with probability `p` per hit, drawn from the site's seeded
    /// RNG — deterministic for a fixed seed and hit sequence.
    Prob { p: f64, fault: Fault },
}

#[cfg(feature = "failpoints")]
mod imp {
    use super::{FailMode, Fault};
    use crate::hash;
    use std::collections::HashMap;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::{Mutex, OnceLock};

    struct Site {
        mode: FailMode,
        hits: u64,
        rng: u64,
    }

    struct Registry {
        seed: u64,
        sites: HashMap<String, Site>,
        log: Vec<String>,
    }

    static ENABLED: AtomicBool = AtomicBool::new(false);
    static REGISTRY: OnceLock<Mutex<Registry>> = OnceLock::new();

    fn registry() -> &'static Mutex<Registry> {
        REGISTRY.get_or_init(|| {
            Mutex::new(Registry {
                seed: 0,
                sites: HashMap::new(),
                log: Vec::new(),
            })
        })
    }

    fn lock() -> std::sync::MutexGuard<'static, Registry> {
        registry().lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Advance a site's splitmix64 stream and return its next draw.
    fn next_draw(state: &mut u64) -> u64 {
        *state = state.wrapping_add(hash::GOLDEN_GAMMA);
        hash::splitmix64(*state)
    }

    /// Reset the plan: drop all sites and the fired-fault log, and fix
    /// the seed every subsequently `set` site derives its RNG from.
    pub fn configure(seed: u64) {
        let mut r = lock();
        r.seed = seed;
        r.sites.clear();
        r.log.clear();
        ENABLED.store(false, Ordering::SeqCst);
    }

    /// Configure one site's firing schedule.
    pub fn set(site: &str, mode: FailMode) {
        let mut r = lock();
        // FNV-1a of the name, so a site's RNG stream depends on it.
        let rng = r.seed ^ hash::fnv1a(site.as_bytes());
        r.sites
            .insert(site.to_string(), Site { mode, hits: 0, rng });
        ENABLED.store(true, Ordering::SeqCst);
    }

    /// Remove every site; all failpoints become no-ops again.
    pub fn clear() {
        let mut r = lock();
        r.sites.clear();
        ENABLED.store(false, Ordering::SeqCst);
    }

    /// The log of fired faults, as `"site hit=N fault"` lines, in fire
    /// order — the chaos run's replayable trace.
    pub fn fired_log() -> Vec<String> {
        lock().log.clone()
    }

    /// Evaluate a site: count the hit and return the fault to inject,
    /// if this hit fires.
    pub fn fire(site: &str) -> Option<Fault> {
        if !ENABLED.load(Ordering::Relaxed) {
            return None;
        }
        let mut r = lock();
        let s = r.sites.get_mut(site)?;
        s.hits += 1;
        let hit = s.hits;
        let fault = match s.mode {
            FailMode::Off => None,
            FailMode::Always(f) => Some(f),
            FailMode::FirstK { k, fault } => (hit <= k).then_some(fault),
            FailMode::Every { n, fault } => (n > 0 && hit % n == 0).then_some(fault),
            FailMode::Prob { p, fault } => {
                let draw = next_draw(&mut s.rng) as f64 / u64::MAX as f64;
                (draw < p).then_some(fault)
            }
        };
        if let Some(f) = fault {
            r.log.push(format!("{site} hit={hit} {f:?}"));
        }
        fault
    }
}

#[cfg(feature = "failpoints")]
pub use imp::{clear, configure, fire, fired_log, set};

#[cfg(not(feature = "failpoints"))]
mod imp_noop {
    use super::{FailMode, Fault};

    #[inline(always)]
    pub fn configure(_seed: u64) {}
    #[inline(always)]
    pub fn set(_site: &str, _mode: FailMode) {}
    #[inline(always)]
    pub fn clear() {}
    #[inline(always)]
    pub fn fired_log() -> Vec<String> {
        Vec::new()
    }
    #[inline(always)]
    pub fn fire(_site: &str) -> Option<Fault> {
        None
    }
}

#[cfg(not(feature = "failpoints"))]
pub use imp_noop::{clear, configure, fire, fired_log, set};

/// Panic/delay site: panics or sleeps if the site fires with those
/// faults; an `IoError` fault at a non-I/O site is ignored.
#[inline]
pub fn pause_or_panic(site: &str) {
    match fire(site) {
        Some(Fault::Panic) => panic!("failpoint {site:?} injected panic"),
        Some(Fault::Delay(ms)) => std::thread::sleep(std::time::Duration::from_millis(ms)),
        Some(Fault::IoError) | None => {}
    }
}

/// I/O site: returns the injected error if the site fires with
/// `IoError`; `Panic`/`Delay` behave as at [`pause_or_panic`].
///
/// # Errors
///
/// The injected [`std::io::Error`] when the site fires.
#[inline]
pub fn io_point(site: &str) -> std::io::Result<()> {
    match fire(site) {
        Some(Fault::IoError) => Err(std::io::Error::other(format!(
            "failpoint {site:?} injected io error"
        ))),
        Some(Fault::Panic) => panic!("failpoint {site:?} injected panic"),
        Some(Fault::Delay(ms)) => {
            std::thread::sleep(std::time::Duration::from_millis(ms));
            Ok(())
        }
        None => Ok(()),
    }
}

#[cfg(all(test, feature = "failpoints"))]
mod tests {
    use super::*;

    /// The registry is process-global; serialize tests that touch it.
    static GUARD: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn schedules_are_deterministic_and_counted() {
        let _g = GUARD.lock().unwrap_or_else(|p| p.into_inner());
        configure(7);
        set(
            "a",
            FailMode::FirstK {
                k: 2,
                fault: Fault::Panic,
            },
        );
        set(
            "b",
            FailMode::Every {
                n: 3,
                fault: Fault::Delay(1),
            },
        );
        let fires_a: Vec<bool> = (0..5).map(|_| fire("a").is_some()).collect();
        let fires_b: Vec<bool> = (0..6).map(|_| fire("b").is_some()).collect();
        assert_eq!(fires_a, [true, true, false, false, false]);
        assert_eq!(fires_b, [false, false, true, false, false, true]);
        assert_eq!(fired_log().len(), 4);
        clear();
        assert_eq!(fire("a"), None);
    }

    #[test]
    fn prob_mode_replays_identically_for_a_seed() {
        let _g = GUARD.lock().unwrap_or_else(|p| p.into_inner());
        let run = |seed: u64| -> Vec<bool> {
            configure(seed);
            set(
                "p",
                FailMode::Prob {
                    p: 0.5,
                    fault: Fault::Panic,
                },
            );
            let v = (0..64).map(|_| fire("p").is_some()).collect();
            clear();
            v
        };
        assert_eq!(run(11), run(11));
        assert_ne!(run(11), run(12), "different seeds should differ");
        let fired = run(11).iter().filter(|&&f| f).count();
        assert!((10..55).contains(&fired), "p=0.5 fired {fired}/64");
    }
}
