//! Shared `key=value` CLI plumbing for the bench binaries.
//!
//! Every harness binary parses flat `key=value` arguments; a typo'd key
//! must be a hard error that **names the offending key** (a silently
//! ignored `targetusers=8` would benchmark the wrong shape and gate CI on
//! it). [`unknown_key_msg`] builds that error, with a did-you-mean
//! suggestion when a known key is within small edit distance — the same
//! message the sweep spec gives ([`revmax_engine::spec::unknown_key`]).

/// Error text for an unrecognized `key=value` key: always names the key,
/// lists the accepted keys, and suggests the closest known key when one is
/// within an edit distance of 2 (catches dropped underscores and
/// single-letter typos without suggesting nonsense for garbage input).
pub fn unknown_key_msg(key: &str, known: &[&str]) -> String {
    revmax_engine::spec::unknown_key("key", key, known)
}

#[cfg(test)]
mod tests {
    use super::*;
    use revmax_engine::spec::edit_distance;

    #[test]
    fn message_names_the_key_and_lists_known_keys() {
        let msg = unknown_key_msg("bogus_key_xyz", &["scale", "seed"]);
        assert!(msg.contains("unknown key 'bogus_key_xyz'"), "{msg}");
        assert!(msg.contains("scale, seed"), "{msg}");
        assert!(!msg.contains("did you mean"), "{msg}");
    }

    #[test]
    fn close_typo_gets_a_suggestion() {
        let msg = unknown_key_msg("targetusers", &["scale", "target_users", "threads"]);
        assert!(msg.contains("did you mean 'target_users'?"), "{msg}");
        let msg = unknown_key_msg("sede", &["scale", "seed"]);
        assert!(msg.contains("did you mean 'seed'?"), "{msg}");
    }

    #[test]
    fn edit_distance_basics() {
        assert_eq!(edit_distance("", "abc"), 3);
        assert_eq!(edit_distance("abc", "abc"), 0);
        assert_eq!(edit_distance("kitten", "sitting"), 3);
        assert_eq!(edit_distance("targetusers", "target_users"), 1);
    }
}
