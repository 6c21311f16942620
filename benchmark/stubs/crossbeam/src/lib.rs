//! Offline stand-in for `crossbeam`: only `channel`, which is all the
//! workspace uses. A mutex-and-condvar MPMC queue; `Select` polls, which
//! is enough for the stream runtime's merge stage (not on the serving path).

pub mod channel;
