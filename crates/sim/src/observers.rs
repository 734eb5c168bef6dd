//! The one subscriber list every component keeps its observers in.

use crate::Simulation;
use std::cell::RefCell;

type Observer<E> = Box<dyn FnMut(&mut Simulation, &E)>;

/// An ordered list of callbacks observing events of type `E`.
///
/// [`fire`](Self::fire) calls the callbacks in registration order with the
/// list taken out of its cell, so no borrow is held while they run and a
/// callback may re-enter the component that fired it. A callback added
/// during a fire runs from the next fire on, after the existing ones; a
/// nested fire of the same list reaches only such newly added callbacks.
/// Callbacks capture handles to other components, so these lists close
/// `Rc` cycles; [`clear`](Self::clear) breaks them when the run is over.
pub struct Observers<E: ?Sized> {
    list: RefCell<Vec<Observer<E>>>,
}

impl<E: ?Sized> Default for Observers<E> {
    fn default() -> Self {
        Observers {
            list: RefCell::default(),
        }
    }
}

impl<E: ?Sized> Observers<E> {
    /// Register `cb` after every callback already registered.
    pub fn add(&self, cb: impl FnMut(&mut Simulation, &E) + 'static) {
        self.list.borrow_mut().push(Box::new(cb));
    }

    /// Deliver `event` to every callback, in registration order.
    pub fn fire(&self, sim: &mut Simulation, event: &E) {
        let mut current = std::mem::take(&mut *self.list.borrow_mut());
        for cb in &mut current {
            cb(sim, event);
        }
        let mut list = self.list.borrow_mut();
        current.append(&mut list);
        *list = current;
    }

    /// Drop every callback, releasing whatever it captured.
    pub fn clear(&self) {
        self.list.borrow_mut().clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::rc::Rc;

    #[test]
    fn fire_calls_callbacks_in_registration_order() {
        let seen = Rc::new(RefCell::new(Vec::new()));
        let obs: Observers<u32> = Observers::default();
        for tag in ["a", "b", "c"] {
            let seen = seen.clone();
            obs.add(move |_, e| seen.borrow_mut().push(format!("{tag}{e}")));
        }
        let mut sim = Simulation::new(1);
        obs.fire(&mut sim, &1);
        obs.fire(&mut sim, &2);
        assert_eq!(*seen.borrow(), ["a1", "b1", "c1", "a2", "b2", "c2"]);
    }

    #[test]
    fn callback_added_during_fire_runs_from_the_next_fire_after_the_others() {
        let seen = Rc::new(RefCell::new(Vec::new()));
        let obs = Rc::new(Observers::<u32>::default());
        let (s, o) = (seen.clone(), obs.clone());
        let mut armed = false;
        obs.add(move |_, e| {
            s.borrow_mut().push(format!("first{e}"));
            if !std::mem::replace(&mut armed, true) {
                let s = s.clone();
                o.add(move |_, e| s.borrow_mut().push(format!("late{e}")));
            }
        });
        let s = seen.clone();
        obs.add(move |_, e| s.borrow_mut().push(format!("second{e}")));
        let mut sim = Simulation::new(1);
        obs.fire(&mut sim, &1);
        obs.fire(&mut sim, &2);
        assert_eq!(
            *seen.borrow(),
            ["first1", "second1", "first2", "second2", "late2"]
        );
        // The list holds a handle to itself through the first callback;
        // clearing it is what lets it go.
        obs.clear();
        assert_eq!(Rc::strong_count(&obs), 1);
    }

    #[test]
    fn clear_drops_captured_state() {
        let captured = Rc::new(());
        let obs: Observers<str> = Observers::default();
        let held = captured.clone();
        obs.add(move |_, _| {
            let _ = &held;
        });
        assert_eq!(Rc::strong_count(&captured), 2);
        obs.clear();
        assert_eq!(Rc::strong_count(&captured), 1);
        // A cleared list stays usable.
        let mut sim = Simulation::new(1);
        obs.fire(&mut sim, "after clear");
    }
}
