//! Miniature standalone 5G core network (Open5GS substitute).
//!
//! The paper runs a containerized Open5GS core providing "subscriber
//! authentication, session and mobility management, policy enforcement, and
//! data routing". This module implements the control-plane subset the
//! xGFabric experiments exercise:
//!
//! * a subscriber registry provisioned from programmable SIM profiles
//!   (the paper uses sysmoISIM-SJA5 cards provisioned with pysim);
//! * the UE registration state machine (deregistered → registering →
//!   registered) with key-based authentication;
//! * PDU-session establishment bound to an admitted network slice;
//! * session counting/teardown used by the RAN simulator for routing.

use crate::error::{NetError, Result};
use crate::slice::Snssai;
use std::collections::BTreeMap;

/// A provisioned SIM profile (what pysim writes onto a sysmoISIM card).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimCard {
    /// International mobile subscriber identity.
    pub imsi: String,
    /// Subscriber authentication key (K).
    pub key: [u8; 16],
    /// Operator code (OPc) derived at provisioning time.
    pub opc: [u8; 16],
}

impl SimCard {
    /// Provision a SIM deterministically from an index, as a CI provisioning
    /// script would (PLMN 001/01, the test network the paper's private
    /// deployment uses).
    pub fn provision(index: u32) -> Self {
        let imsi = format!("00101{:010}", index);
        let mut key = [0u8; 16];
        let mut opc = [0u8; 16];
        // Deterministic per-index credentials; this is a simulator, not a
        // cryptographic implementation.
        for i in 0..16 {
            key[i] = (index as u8).wrapping_mul(31).wrapping_add(i as u8 * 7);
            opc[i] = (index as u8).wrapping_mul(17).wrapping_add(i as u8 * 11);
        }
        SimCard { imsi, key, opc }
    }
}

/// Registration state of a subscriber, following the 5GMM model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum RegState {
    /// Known to the core but not attached.
    Deregistered,
    /// Registered and reachable.
    Registered,
}

/// An established PDU session.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct PduSession {
    /// Session identifier, unique per subscriber.
    pub id: u8,
    /// The slice this session is bound to.
    pub snssai: Snssai,
    /// Data network name (e.g. "internet").
    pub dnn: String,
}

#[derive(Debug, Clone)]
struct Subscriber {
    sim: SimCard,
    state: RegState,
    sessions: Vec<PduSession>,
    allowed_slices: Vec<Snssai>,
}

/// The 5G core: subscriber database + registration and session management.
#[derive(Debug, Default)]
pub struct Core5g {
    subscribers: BTreeMap<String, Subscriber>,
}

impl Core5g {
    /// An empty core with no provisioned subscribers.
    pub(crate) fn new() -> Self {
        Core5g::default()
    }

    /// Provision a subscriber: store its SIM credentials and the slices its
    /// subscription permits.
    pub(crate) fn provision(&mut self, sim: SimCard, allowed_slices: Vec<Snssai>) {
        self.subscribers.insert(
            sim.imsi.clone(),
            Subscriber {
                sim,
                state: RegState::Deregistered,
                sessions: Vec::new(),
                allowed_slices,
            },
        );
    }

    /// Register a UE presenting SIM credentials.
    ///
    /// Authentication checks the key and OPc against the provisioned values
    /// (the AKA challenge is abstracted to a credential comparison).
    pub(crate) fn register(&mut self, sim: &SimCard) -> Result<()> {
        let sub =
            self.subscribers
                .get_mut(&sim.imsi)
                .ok_or_else(|| NetError::AuthenticationFailed {
                    imsi: sim.imsi.clone(),
                })?;
        if sub.sim.key != sim.key || sub.sim.opc != sim.opc {
            return Err(NetError::AuthenticationFailed {
                imsi: sim.imsi.clone(),
            });
        }
        if sub.state == RegState::Registered {
            return Err(NetError::AlreadyRegistered(sim.imsi.clone()));
        }
        sub.state = RegState::Registered;
        Ok(())
    }

    /// Establish a PDU session on a slice for a registered UE.
    pub(crate) fn establish_session(
        &mut self,
        imsi: &str,
        snssai: Snssai,
        dnn: &str,
    ) -> Result<PduSession> {
        let sub = self
            .subscribers
            .get_mut(imsi)
            .ok_or_else(|| NetError::AuthenticationFailed { imsi: imsi.into() })?;
        if sub.state != RegState::Registered {
            return Err(NetError::InvalidSessionState(format!(
                "{imsi} is not registered"
            )));
        }
        if !sub.allowed_slices.contains(&snssai) {
            return Err(NetError::InvalidSessionState(format!(
                "{imsi} subscription does not permit slice {snssai:?}"
            )));
        }
        let id = sub.sessions.len() as u8 + 1;
        let session = PduSession {
            id,
            snssai,
            dnn: dnn.to_string(),
        };
        sub.sessions.push(session.clone());
        Ok(session)
    }

    /// Number of registered subscribers.
    pub fn registered_count(&self) -> usize {
        self.subscribers
            .values()
            .filter(|s| s.state == RegState::Registered)
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn core_with(idx: u32, slices: Vec<Snssai>) -> (Core5g, SimCard) {
        let mut core = Core5g::new();
        let sim = SimCard::provision(idx);
        core.provision(sim.clone(), slices);
        (core, sim)
    }

    #[test]
    fn provision_is_deterministic() {
        assert_eq!(SimCard::provision(5), SimCard::provision(5));
        assert_ne!(SimCard::provision(5), SimCard::provision(6));
        assert_eq!(SimCard::provision(3).imsi, "001010000000003");
    }

    #[test]
    fn register_happy_path() {
        let (mut core, sim) = core_with(1, vec![Snssai::embb(0)]);
        assert_eq!(
            core.subscribers.get(&sim.imsi).map(|s| s.state),
            Some(RegState::Deregistered)
        );
        core.register(&sim).unwrap();
        assert_eq!(
            core.subscribers.get(&sim.imsi).map(|s| s.state),
            Some(RegState::Registered)
        );
        assert_eq!(core.registered_count(), 1);
    }

    #[test]
    fn wrong_key_rejected() {
        let (mut core, sim) = core_with(1, vec![]);
        let mut bad = sim.clone();
        bad.key[0] ^= 0xFF;
        assert!(matches!(
            core.register(&bad),
            Err(NetError::AuthenticationFailed { .. })
        ));
    }

    #[test]
    fn unknown_imsi_rejected() {
        let mut core = Core5g::new();
        let sim = SimCard::provision(9);
        assert!(core.register(&sim).is_err());
    }

    #[test]
    fn double_register_rejected() {
        let (mut core, sim) = core_with(1, vec![]);
        core.register(&sim).unwrap();
        assert!(matches!(
            core.register(&sim),
            Err(NetError::AlreadyRegistered(_))
        ));
    }

    #[test]
    fn session_requires_registration() {
        let (mut core, sim) = core_with(1, vec![Snssai::miot(1)]);
        assert!(core
            .establish_session(&sim.imsi, Snssai::miot(1), "internet")
            .is_err());
        core.register(&sim).unwrap();
        let s = core
            .establish_session(&sim.imsi, Snssai::miot(1), "internet")
            .unwrap();
        assert_eq!(s.id, 1);
        assert_eq!(core.subscribers[&sim.imsi].sessions.len(), 1);
    }

    #[test]
    fn session_slice_policy_enforced() {
        let (mut core, sim) = core_with(1, vec![Snssai::miot(1)]);
        core.register(&sim).unwrap();
        assert!(core
            .establish_session(&sim.imsi, Snssai::embb(0), "internet")
            .is_err());
    }
}
