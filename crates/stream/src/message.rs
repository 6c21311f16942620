//! Stream elements: records, watermarks and end-of-stream markers.

use datacron_geo::TimeMs;

/// A payload stamped with its event time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Record<T> {
    /// When the event happened in the real world.
    pub event_time: TimeMs,
    /// The payload.
    pub payload: T,
}

impl<T> Record<T> {
    /// Creates a record.
    pub fn new(event_time: TimeMs, payload: T) -> Self {
        Self {
            event_time,
            payload,
        }
    }

    /// Maps the payload, keeping the timestamp.
    pub fn map<U>(self, f: impl FnOnce(T) -> U) -> Record<U> {
        Record {
            event_time: self.event_time,
            payload: f(self.payload),
        }
    }
}

/// An element of a dataflow channel.
///
/// Watermarks assert that no further record with `event_time < t` will
/// arrive on this channel; `End` closes the stream (all upstream data has
/// been emitted).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Message<T> {
    /// A data record.
    Record(Record<T>),
    /// Event-time progress marker.
    Watermark(TimeMs),
    /// End of stream.
    End,
}

impl<T> Message<T> {
    /// Convenience constructor for a record message.
    pub fn record(event_time: TimeMs, payload: T) -> Self {
        Message::Record(Record::new(event_time, payload))
    }

    /// The record inside, if this is a record message.
    pub fn as_record(&self) -> Option<&Record<T>> {
        match self {
            Message::Record(r) => Some(r),
            _ => None,
        }
    }

    /// True for [`Message::End`].
    pub fn is_end(&self) -> bool {
        matches!(self, Message::End)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_map_keeps_time() {
        let r = Record::new(TimeMs(42), 10u32).map(|x| x * 2);
        assert_eq!(r.event_time, TimeMs(42));
        assert_eq!(r.payload, 20);
    }

    #[test]
    fn message_accessors() {
        let m = Message::record(TimeMs(1), "a");
        assert_eq!(m.as_record().unwrap().payload, "a");
        assert!(!m.is_end());
        let wm: Message<&str> = Message::Watermark(TimeMs(5));
        assert!(wm.as_record().is_none());
        assert!(Message::<u8>::End.is_end());
    }
}
