//! The mapping into the common RDF representation.

use crate::ontology as onto;
use datacron_geo::FxHashSet;
use datacron_geo::GeoPoint;
use datacron_model::{EventRecord, ObjectId, PositionReport, VesselInfo};
use datacron_rdf::{Graph, Term};

/// Maps reports, metadata and analytics results into a [`Graph`].
///
/// The mapper remembers which objects it has already typed so per-object
/// static triples are emitted exactly once, and numbers event instances.
#[derive(Debug, Default)]
pub struct RdfMapper {
    typed_objects: FxHashSet<ObjectId>,
    event_seq: u64,
    triples_emitted: u64,
}

/// The mapper's durable state, exported for snapshots and restored on
/// recovery. Restoring it is what keeps per-object typing "exactly once"
/// across a restart — a fresh mapper would re-type every known object.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MapperState {
    /// Objects already typed, in ascending id order (deterministic dumps).
    pub typed_objects: Vec<ObjectId>,
    /// Next event instance number.
    pub event_seq: u64,
    /// Triples emitted so far.
    pub triples_emitted: u64,
}

impl RdfMapper {
    /// A fresh mapper.
    pub fn new() -> Self {
        Self::default()
    }

    /// Triples emitted so far.
    pub fn triples_emitted(&self) -> u64 {
        self.triples_emitted
    }

    /// Exports the mapper's durable state for a snapshot.
    pub fn export_state(&self) -> MapperState {
        let mut typed_objects: Vec<ObjectId> = self.typed_objects.iter().copied().collect();
        typed_objects.sort_unstable_by_key(|o| o.0);
        MapperState {
            typed_objects,
            event_seq: self.event_seq,
            triples_emitted: self.triples_emitted,
        }
    }

    /// Rebuilds a mapper from exported state.
    pub fn from_state(state: MapperState) -> Self {
        Self {
            typed_objects: state.typed_objects.into_iter().collect(),
            event_seq: state.event_seq,
            triples_emitted: state.triples_emitted,
        }
    }

    fn type_object(&mut self, g: &mut Graph, id: ObjectId, class: Term) {
        if self.typed_objects.insert(id) {
            g.insert(&onto::iri_object(id), &onto::p_type(), &class);
            self.triples_emitted += 1;
        }
    }

    /// Maps one position report to a semantic node (5–7 triples).
    ///
    /// `annotation` optionally records why the fix was retained (the
    /// critical-point kind tag from the synopsis).
    pub fn map_report(&mut self, g: &mut Graph, r: &PositionReport, annotation: Option<&str>) {
        let is_aviation = datacron_model::report::domain_of(r) == datacron_model::Domain::Aviation;
        self.type_object(
            g,
            r.object,
            if is_aviation {
                onto::c_flight()
            } else {
                onto::c_vessel()
            },
        );
        let node = onto::iri_node(r.object, r.time.millis());
        let obj = onto::iri_object(r.object);
        g.insert(&node, &onto::p_type(), &onto::c_semantic_node());
        g.insert(&node, &onto::p_of_object(), &obj);
        g.insert(
            &node,
            &onto::p_geometry(),
            &Term::point(GeoPoint::new(r.lon, r.lat)),
        );
        g.insert(&node, &onto::p_at_time(), &Term::time(r.time));
        self.triples_emitted += 4;
        if r.speed_mps.is_finite() {
            g.insert(&node, &onto::p_speed(), &Term::double(r.speed_mps));
            self.triples_emitted += 1;
        }
        if r.heading_deg.is_finite() {
            g.insert(&node, &onto::p_heading(), &Term::double(r.heading_deg));
            self.triples_emitted += 1;
        }
        if is_aviation {
            g.insert(&node, &onto::p_altitude(), &Term::double(r.alt_m));
            self.triples_emitted += 1;
        }
        if let Some(a) = annotation {
            g.insert(&node, &onto::p_annotation(), &Term::string(a));
            self.triples_emitted += 1;
        }
    }

    /// Maps vessel registry metadata (4 triples + typing).
    pub fn map_vessel_info(&mut self, g: &mut Graph, v: &VesselInfo) {
        self.type_object(g, v.object, onto::c_vessel());
        let obj = onto::iri_object(v.object);
        g.insert(&obj, &onto::p_name(), &Term::string(&v.name));
        g.insert(&obj, &onto::p_ext_id(), &Term::integer(i64::from(v.mmsi)));
        g.insert(
            &obj,
            &onto::p_kind_code(),
            &Term::integer(i64::from(v.ship_type)),
        );
        g.insert(&obj, &onto::p_flag(), &Term::string(&v.flag));
        self.triples_emitted += 4;
    }

    /// Maps a recognised/forecast event ("analytical results … to a common
    /// representation").
    pub fn map_event(&mut self, g: &mut Graph, e: &EventRecord) -> Term {
        let ev = onto::iri_event(e.kind, self.event_seq);
        self.event_seq += 1;
        g.insert(&ev, &onto::p_type(), &onto::c_event());
        g.insert(&ev, &onto::p_event_kind(), &onto::iri_event_kind(e.kind));
        g.insert(&ev, &onto::p_geometry(), &Term::point(e.location));
        g.insert(&ev, &onto::p_at_time(), &Term::time(e.interval.start));
        g.insert(&ev, &onto::p_confidence(), &Term::double(e.confidence));
        self.triples_emitted += 5;
        for obj in &e.objects {
            g.insert(&ev, &onto::p_involves(), &onto::iri_object(*obj));
            self.triples_emitted += 1;
        }
        ev
    }

    /// Maps one weather observation (the archival enrichment source): a
    /// weather node with geometry, time and wind components.
    pub fn map_weather_observation(
        &mut self,
        g: &mut Graph,
        pos: GeoPoint,
        t: datacron_geo::TimeMs,
        wind_u_mps: f64,
        wind_v_mps: f64,
    ) -> Term {
        let node = Term::iri(format!(
            "da:weather/{}/{}",
            (pos.lon * 100.0).round() as i64,
            t.millis()
        ));
        g.insert(&node, &onto::p_type(), &Term::iri("da:WeatherObservation"));
        g.insert(&node, &onto::p_geometry(), &Term::point(pos));
        g.insert(&node, &onto::p_at_time(), &Term::time(t));
        g.insert(&node, &Term::iri("da:windU"), &Term::double(wind_u_mps));
        g.insert(&node, &Term::iri("da:windV"), &Term::double(wind_v_mps));
        self.triples_emitted += 5;
        node
    }

    /// Maps a discovered identity link (`owl:sameAs`, symmetric pair).
    pub fn map_same_as(&mut self, g: &mut Graph, a: ObjectId, b: ObjectId) {
        g.insert(
            &onto::iri_object(a),
            &onto::p_same_as(),
            &onto::iri_object(b),
        );
        g.insert(
            &onto::iri_object(b),
            &onto::p_same_as(),
            &onto::iri_object(a),
        );
        self.triples_emitted += 2;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datacron_geo::{TimeInterval, TimeMs};
    use datacron_model::{EventKind, NavStatus, SourceId};
    use datacron_rdf::{execute, parse_query};

    fn sample_report(obj: u64, t: i64) -> PositionReport {
        PositionReport::maritime(
            ObjectId(obj),
            TimeMs(t),
            GeoPoint::new(23.6, 37.9),
            5.0,
            135.0,
            SourceId::AIS_TERRESTRIAL,
            NavStatus::UnderWay,
        )
    }

    #[test]
    fn report_mapping_is_queryable() {
        let mut g = Graph::new();
        let mut m = RdfMapper::new();
        m.map_report(&mut g, &sample_report(1, 1000), None);
        m.map_report(&mut g, &sample_report(1, 2000), Some("turn"));
        g.commit();

        let q = parse_query("SELECT ?n WHERE { ?n da:ofMovingObject ?o . ?o rdf:type da:Vessel }")
            .unwrap();
        let (b, _) = execute(&g, &q);
        assert_eq!(b.len(), 2);

        // The annotated node carries its annotation.
        let q = parse_query(r#"SELECT ?n WHERE { ?n da:hasAnnotation "turn" }"#).unwrap();
        let (b, _) = execute(&g, &q);
        assert_eq!(b.len(), 1);
    }

    #[test]
    fn typing_emitted_once() {
        let mut g = Graph::new();
        let mut m = RdfMapper::new();
        for t in 0..10 {
            m.map_report(&mut g, &sample_report(7, t * 1000), None);
        }
        g.commit();
        let q = parse_query("SELECT ?o WHERE { ?o rdf:type da:Vessel }").unwrap();
        let (b, _) = execute(&g, &q);
        assert_eq!(b.len(), 1);
    }

    #[test]
    fn aviation_reports_get_altitude_and_flight_class() {
        let mut g = Graph::new();
        let mut m = RdfMapper::new();
        let r = PositionReport::aviation(
            ObjectId(2),
            TimeMs(1000),
            datacron_geo::GeoPoint3::new(12.0, 41.0, 10_000.0),
            230.0,
            270.0,
            0.0,
            SourceId::ADSB,
        );
        m.map_report(&mut g, &r, None);
        g.commit();
        let q =
            parse_query("SELECT ?n WHERE { ?n da:altitude ?a . FILTER (?a > 9000.0) }").unwrap();
        let (b, _) = execute(&g, &q);
        assert_eq!(b.len(), 1);
        let q = parse_query("SELECT ?o WHERE { ?o rdf:type da:Flight }").unwrap();
        let (b, _) = execute(&g, &q);
        assert_eq!(b.len(), 1);
    }

    #[test]
    fn nan_kinematics_skip_triples() {
        let mut g = Graph::new();
        let mut m = RdfMapper::new();
        let mut r = sample_report(3, 1000);
        r.speed_mps = f64::NAN;
        r.heading_deg = f64::NAN;
        m.map_report(&mut g, &r, None);
        g.commit();
        let q = parse_query("SELECT ?n WHERE { ?n da:speed ?s }").unwrap();
        let (b, _) = execute(&g, &q);
        assert!(b.is_empty());
    }

    #[test]
    fn vessel_info_mapping() {
        let mut g = Graph::new();
        let mut m = RdfMapper::new();
        m.map_vessel_info(
            &mut g,
            &VesselInfo {
                object: ObjectId(1),
                mmsi: 237_000_001,
                name: "BLUE STAR".into(),
                ship_type: 70,
                length_m: 120.0,
                flag: "GR".into(),
            },
        );
        g.commit();
        let q =
            parse_query(r#"SELECT ?o WHERE { ?o da:name "BLUE STAR" . ?o da:flag "GR" }"#).unwrap();
        let (b, _) = execute(&g, &q);
        assert_eq!(b.len(), 1);
    }

    #[test]
    fn event_mapping_links_objects() {
        let mut g = Graph::new();
        let mut m = RdfMapper::new();
        let e = EventRecord::durative(
            EventKind::Rendezvous,
            vec![ObjectId(1), ObjectId(2)],
            TimeInterval::new(TimeMs(0), TimeMs(60_000)),
            GeoPoint::new(24.5, 37.0),
        );
        let ev1 = m.map_event(&mut g, &e);
        let ev2 = m.map_event(&mut g, &e);
        assert_ne!(ev1, ev2, "event instances numbered");
        g.commit();
        let q = parse_query(
            "SELECT ?e WHERE { ?e da:eventKind da:kind/rendezvous . ?e da:involves da:obj/1 }",
        )
        .unwrap();
        let (b, _) = execute(&g, &q);
        assert_eq!(b.len(), 2);
    }

    #[test]
    fn weather_observation_is_spatiotemporally_queryable() {
        let mut g = Graph::new();
        let mut m = RdfMapper::new();
        m.map_weather_observation(
            &mut g,
            GeoPoint::new(24.5, 37.5),
            TimeMs(3_600_000),
            5.5,
            -2.0,
        );
        m.map_weather_observation(
            &mut g,
            GeoPoint::new(27.0, 39.0),
            TimeMs(3_600_000),
            1.0,
            1.0,
        );
        g.commit();
        // Spatio-temporal join: weather near the vessel's position.
        let q = parse_query(
            "SELECT ?w ?u WHERE { ?w rdf:type da:WeatherObservation . ?w da:hasGeometry ?g . ?w da:windU ?u . FILTER st_near(?g, 24.5, 37.5, 50000) }",
        )
        .unwrap();
        let (b, _) = execute(&g, &q);
        assert_eq!(b.len(), 1);
    }

    #[test]
    fn same_as_is_symmetric() {
        let mut g = Graph::new();
        let mut m = RdfMapper::new();
        m.map_same_as(&mut g, ObjectId(1), ObjectId(100_000));
        g.commit();
        let q = parse_query("SELECT ?a ?b WHERE { ?a owl:sameAs ?b }").unwrap();
        let (b, _) = execute(&g, &q);
        assert_eq!(b.len(), 2);
    }

    #[test]
    fn state_round_trip_preserves_exactly_once_typing() {
        let mut g = Graph::new();
        let mut m = RdfMapper::new();
        m.map_report(&mut g, &sample_report(1, 1000), None);
        m.map_event(
            &mut g,
            &EventRecord::durative(
                EventKind::Rendezvous,
                vec![ObjectId(1)],
                TimeInterval::new(TimeMs(0), TimeMs(1)),
                GeoPoint::new(24.0, 37.0),
            ),
        );
        let state = m.export_state();
        let mut m2 = RdfMapper::from_state(state.clone());
        assert_eq!(m2.export_state(), state);
        assert_eq!(m2.triples_emitted(), m.triples_emitted());

        // A restored mapper must not re-type object 1 …
        let before = m2.triples_emitted();
        m2.map_report(&mut g, &sample_report(1, 2000), None);
        let emitted = m2.triples_emitted() - before;
        // … so the second report emits node triples only (no type triple).
        assert_eq!(emitted, 6);

        // … and continues the event numbering, not restarting it.
        let ev = m2.map_event(
            &mut g,
            &EventRecord::durative(
                EventKind::Rendezvous,
                vec![ObjectId(1)],
                TimeInterval::new(TimeMs(2), TimeMs(3)),
                GeoPoint::new(24.0, 37.0),
            ),
        );
        assert!(ev.to_string().contains('1'), "second instance is #1: {ev}");
    }

    #[test]
    fn triple_count_accounting() {
        let mut g = Graph::new();
        let mut m = RdfMapper::new();
        m.map_report(&mut g, &sample_report(1, 1000), None);
        // type(1) + node-type/of/geom/time(4) + speed + heading = 7.
        assert_eq!(m.triples_emitted(), 7);
        g.commit();
        assert_eq!(g.len() as u64, m.triples_emitted());
    }
}
