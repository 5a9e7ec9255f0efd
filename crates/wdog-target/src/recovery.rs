//! One recovery map per target: a blamed component resolves once, by its
//! exact id, to the handles that restart it, shed it and verify it.
//!
//! Ids are exact — there is no substring or prefix matching — so a checker
//! whose component the map does not hold gets no restart, no shed and no
//! verifier, and its incidents fail closed. A new checker component needs a
//! row of its own.

use std::collections::BTreeMap;
use std::sync::Arc;

use wdog_base::error::BaseResult;
use wdog_base::ids::ComponentId;
use wdog_core::prelude::*;

use crate::RecoverySurface;

/// A named action on one component: a restart or a shed.
#[derive(Clone)]
pub struct Handle {
    /// The part of the target it acts on (`flusher`, `request path`).
    pub name: &'static str,
    run: Arc<dyn Fn() + Send + Sync>,
}

impl Handle {
    /// Names the action `run`.
    pub fn new(name: &'static str, run: impl Fn() + Send + Sync + 'static) -> Self {
        Self {
            name,
            run: Arc::new(run),
        }
    }
}

/// A named verification probe. It exercises the resource the blaming
/// checker watched (a lock, a volume, a link, the API), so it fails or
/// blocks while the fault is still there.
#[derive(Clone)]
pub struct Verifier {
    /// The id of the checker the coordinator runs.
    pub id: &'static str,
    probe: Arc<dyn Fn() -> BaseResult<()> + Send + Sync>,
}

impl Verifier {
    /// Names the probe `probe`.
    pub fn new(
        id: &'static str,
        probe: impl Fn() -> BaseResult<()> + Send + Sync + 'static,
    ) -> Self {
        Self {
            id,
            probe: Arc::new(probe),
        }
    }
}

/// What one blamed component can do.
pub struct Handles {
    /// Component-scoped restart; `None` leaves only retry and verify.
    pub restart: Option<Handle>,
    /// Workload shed for the degrade rung; `None` sheds nothing.
    pub shed: Option<Handle>,
    /// The check whose pass closes the incident `verified-recovered`.
    pub verifier: Verifier,
}

/// A target's recovery map, keyed by exact component id.
#[derive(Default)]
pub struct RecoveryMap(BTreeMap<ComponentId, Handles>);

impl RecoveryMap {
    /// Maps each of `ids` to the same handles.
    pub fn with(
        mut self,
        ids: &[&str],
        restart: Option<&Handle>,
        shed: Option<&Handle>,
        verifier: &Verifier,
    ) -> Self {
        for id in ids {
            let handles = Handles {
                restart: restart.cloned(),
                shed: shed.cloned(),
                verifier: verifier.clone(),
            };
            self.0.insert(ComponentId::new(*id), handles);
        }
        self
    }

    /// The handles of exactly `component`.
    pub fn get(&self, component: &ComponentId) -> Option<&Handles> {
        self.0.get(component)
    }

    /// Every mapped id, in order.
    pub fn ids(&self) -> impl Iterator<Item = &ComponentId> {
        self.0.keys()
    }

    /// The coordinator's view of the map.
    pub fn surface(self) -> RecoverySurface {
        let map = Arc::new(self);
        let verifiers = Arc::clone(&map);
        RecoverySurface {
            restart: Arc::clone(&map) as Arc<dyn Restartable>,
            degrade: map,
            verifier: Arc::new(move |c: &ComponentId| verifiers.verifier(c)),
        }
    }

    /// A fresh checker running `component`'s verifier probe.
    fn verifier(&self, component: &ComponentId) -> Option<Box<dyn Checker>> {
        let Verifier { id, probe } = self.get(component)?.verifier.clone();
        let comp = component.clone();
        let check = move || match probe() {
            Ok(()) => CheckStatus::Pass,
            Err(e) => CheckStatus::Fail(CheckFailure::new(
                FailureKind::from_error(&e),
                FaultLocation::new(comp.clone(), "recovery_verify"),
                e.to_string(),
            )),
        };
        Some(Box::new(FnChecker::new(id, component.clone(), check)))
    }
}

impl Restartable for RecoveryMap {
    fn restart(&self, component: &ComponentId) {
        if let Some(h) = self.get(component).and_then(|h| h.restart.as_ref()) {
            (h.run)();
        }
    }
}

impl Degradable for RecoveryMap {
    fn degrade(&self, component: &ComponentId) {
        if let Some(h) = self.get(component).and_then(|h| h.shed.as_ref()) {
            (h.run)();
        }
    }
}
