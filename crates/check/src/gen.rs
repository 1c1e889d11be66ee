//! `Gen<T>`: first-class generator combinators over a [`Source`].
//!
//! A `Gen<T>` is just a shared closure from tape to value, so generators
//! compose (`map`, `vec`, `one_of`) while every draw still lands on the
//! single choice tape the shrinker edits. Plain `fn(&mut Source) -> T`
//! generators (see [`crate::packets`]) lift into `Gen` via [`Gen::new`].

use std::rc::Rc;

use crate::source::Source;

/// A composable generator of `T` values.
pub struct Gen<T> {
    f: Rc<dyn Fn(&mut Source) -> T>,
}

impl<T> Clone for Gen<T> {
    fn clone(&self) -> Self {
        Gen { f: Rc::clone(&self.f) }
    }
}

impl<T: 'static> Gen<T> {
    /// Lift a drawing function into a generator.
    pub fn new(f: impl Fn(&mut Source) -> T + 'static) -> Gen<T> {
        Gen { f: Rc::new(f) }
    }

    /// Draw one value.
    pub fn run(&self, s: &mut Source) -> T {
        (self.f)(s)
    }

    /// A generator that always yields `value`.
    pub fn constant(value: T) -> Gen<T>
    where
        T: Clone,
    {
        Gen::new(move |_| value.clone())
    }

    /// Transform every generated value.
    pub fn map<U: 'static>(&self, g: impl Fn(T) -> U + 'static) -> Gen<U> {
        let f = Rc::clone(&self.f);
        Gen::new(move |s| g(f(s)))
    }

    /// A vector of `lo..=hi` draws; shrinks toward `lo` elements.
    pub fn vec(&self, lo: usize, hi: usize) -> Gen<Vec<T>> {
        let f = Rc::clone(&self.f);
        Gen::new(move |s| {
            let len = s.len_in(lo, hi);
            (0..len).map(|_| f(s)).collect()
        })
    }

    /// `Some` draw or `None`; a zero tape yields `None`.
    pub fn option(&self) -> Gen<Option<T>> {
        let f = Rc::clone(&self.f);
        Gen::new(move |s| if s.any_bool() { Some(f(s)) } else { None })
    }

    /// Pick one of several generators uniformly; shrinks toward the
    /// first. The list must be non-empty.
    pub fn one_of(gens: Vec<Gen<T>>) -> Gen<T> {
        assert!(!gens.is_empty(), "Gen::one_of: empty list");
        Gen::new(move |s| {
            let i = s.below(gens.len() as u64) as usize;
            gens[i].run(s)
        })
    }
}

/// Full-width integers.
pub fn u64s() -> Gen<u64> {
    Gen::new(Source::any_u64)
}

/// Integers in `lo..=hi`.
pub fn ranged(lo: u64, hi: u64) -> Gen<u64> {
    Gen::new(move |s| s.range_u64(lo, hi))
}

/// Strings over `alphabet` with length in `lo..=hi`.
pub fn strings(alphabet: &str, lo: usize, hi: usize) -> Gen<String> {
    let alphabet = alphabet.to_string();
    Gen::new(move |s| s.string(&alphabet, lo, hi))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn combinators_stay_on_one_tape() {
        let g = ranged(1, 6).map(|v| v * 10).vec(2, 5);
        let mut a = Source::new(3, 0);
        let drawn = g.run(&mut a);
        assert!((2..=5).contains(&drawn.len()));
        assert!(drawn.iter().all(|v| (10..=60).contains(v) && v % 10 == 0));
        let mut b = Source::replay(a.tape());
        assert_eq!(g.run(&mut b), drawn, "replay yields the same structure");
    }

    #[test]
    fn one_of_shrinks_toward_the_first_alternative() {
        let g = Gen::one_of(vec![Gen::constant(1u8), Gen::constant(2), Gen::constant(3)]);
        let mut zero = Source::replay(&[]);
        assert_eq!(g.run(&mut zero), 1);
    }

    #[test]
    fn option_zero_tape_is_none() {
        let g = u64s().option();
        let mut zero = Source::replay(&[]);
        assert_eq!(g.run(&mut zero), None);
    }
}
