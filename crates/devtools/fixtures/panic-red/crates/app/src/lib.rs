//! Seeded L4 violation: one panic site in non-test library code.

pub fn first_sample(samples: &[u32]) -> u32 {
    samples.first().copied().unwrap()
}

#[cfg(test)]
mod tests {
    // Test code is exempt: this site must not be counted.
    #[test]
    fn first() {
        assert_eq!(super::first_sample(&[7]), Some(7).unwrap());
    }
}
