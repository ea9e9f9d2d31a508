//! Empty: kept only because `anycast-bench`'s manifest names it; ROADMAP item 8(e) deletes it.
