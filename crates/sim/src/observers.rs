//! The one subscriber list every component keeps its observers in.

use crate::Simulation;
use std::cell::RefCell;
use std::collections::VecDeque;

type Observer<E> = Box<dyn FnMut(&mut Simulation, &E)>;

/// An ordered list of callbacks observing events of type `E`.
///
/// [`fire`](Self::fire) calls the callbacks in registration order with the
/// list taken out of its cell, so no borrow is held while they run and a
/// callback may re-enter the component that fired it. A callback added
/// during a fire runs from the next delivery on, after the existing ones.
/// A fire nested inside a fire of the same list is queued, not dropped:
/// once the outer event has reached every callback, each queued event is
/// delivered to every callback in registration order, oldest first.
/// Callbacks capture handles to other components, so these lists close
/// `Rc` cycles; [`clear`](Self::clear) breaks them when the run is over.
pub struct Observers<E: ?Sized + ToOwned> {
    list: RefCell<Vec<Observer<E>>>,
    /// The events fired during a delivery; `Some` while one runs.
    queued: RefCell<Option<VecDeque<E::Owned>>>,
}

impl<E: ?Sized + ToOwned> Default for Observers<E> {
    fn default() -> Self {
        Observers {
            list: RefCell::default(),
            queued: RefCell::default(),
        }
    }
}

impl<E: ?Sized + ToOwned> Observers<E> {
    /// Register `cb` after every callback already registered.
    pub fn add(&self, cb: impl FnMut(&mut Simulation, &E) + 'static) {
        self.list.borrow_mut().push(Box::new(cb));
    }

    /// Deliver `event` to every callback, in registration order, then
    /// whatever the callbacks fired into this list meanwhile.
    pub fn fire(&self, sim: &mut Simulation, event: &E) {
        if let Some(queue) = self.queued.borrow_mut().as_mut() {
            return queue.push_back(event.to_owned());
        }
        *self.queued.borrow_mut() = Some(VecDeque::new());
        self.deliver(sim, event);
        while let Some(next) = self.next_queued() {
            self.deliver(sim, std::borrow::Borrow::borrow(&next));
        }
        *self.queued.borrow_mut() = None;
    }

    fn next_queued(&self) -> Option<E::Owned> {
        self.queued.borrow_mut().as_mut()?.pop_front()
    }

    fn deliver(&self, sim: &mut Simulation, event: &E) {
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
    fn callback_added_during_fire_runs_from_the_next_delivery_after_the_others() {
        let seen = Rc::new(RefCell::new(Vec::new()));
        let obs = Rc::new(Observers::<u32>::default());
        let (s, o) = (seen.clone(), obs.clone());
        let mut armed = false;
        obs.add(move |sim, e| {
            s.borrow_mut().push(format!("first{e}"));
            if !std::mem::replace(&mut armed, true) {
                let s = s.clone();
                o.add(move |_, e| s.borrow_mut().push(format!("late{e}")));
                // Queued behind event 1, so it reaches the new callback.
                o.fire(sim, &10);
            }
        });
        let s = seen.clone();
        obs.add(move |_, e| s.borrow_mut().push(format!("second{e}")));
        let mut sim = Simulation::new(1);
        obs.fire(&mut sim, &1);
        obs.fire(&mut sim, &2);
        assert_eq!(
            *seen.borrow(),
            ["first1", "second1", "first10", "second10", "late10", "first2", "second2", "late2"]
        );
        // The list holds a handle to itself through the first callback;
        // clearing it is what lets it go.
        obs.clear();
        assert_eq!(Rc::strong_count(&obs), 1);
    }

    #[test]
    fn nested_fire_reaches_every_callback_after_the_outer_fire() {
        let seen = Rc::new(RefCell::new(Vec::new()));
        let obs = Rc::new(Observers::<u32>::default());
        for tag in ["a", "b", "c"] {
            let (s, o) = (seen.clone(), obs.clone());
            obs.add(move |sim, &e| {
                s.borrow_mut().push(format!("{tag}{e}"));
                match (tag, e) {
                    ("a", 1) => {
                        o.fire(sim, &2);
                        o.fire(sim, &3);
                    }
                    ("b", 2) => o.fire(sim, &4),
                    _ => {}
                }
            });
        }
        let mut sim = Simulation::new(1);
        obs.fire(&mut sim, &1);
        assert_eq!(
            *seen.borrow(),
            ["a1", "b1", "c1", "a2", "b2", "c2", "a3", "b3", "c3", "a4", "b4", "c4"]
        );
        // Delivery is over: the next fire goes straight through.
        seen.borrow_mut().clear();
        obs.fire(&mut sim, &5);
        assert_eq!(*seen.borrow(), ["a5", "b5", "c5"]);
        obs.clear();
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
