//! Home topology: floors, rooms and the containment queries used when
//! retrieving "devices within the current room / current floor / the whole
//! home" (paper §3.2, guidance function).

use crate::error::TopologyError;
use std::collections::BTreeMap;
use std::fmt;

/// Identifies a place (the home itself, a floor, or a room). Stored and
/// compared case-insensitively — `PlaceId::new("Living Room")` equals
/// `PlaceId::new("living room")`.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PlaceId(String);

impl PlaceId {
    /// Creates a place id; the name is normalized to lower case.
    pub fn new(name: impl AsRef<str>) -> PlaceId {
        PlaceId(name.as_ref().trim().to_ascii_lowercase())
    }

    /// The normalized name.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl fmt::Debug for PlaceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PlaceId({:?})", self.0)
    }
}

impl fmt::Display for PlaceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl From<&str> for PlaceId {
    fn from(s: &str) -> Self {
        PlaceId::new(s)
    }
}

/// What kind of place a [`PlaceId`] names.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum PlaceKind {
    /// The whole home — the root of the topology.
    Home,
    /// A floor (storey) of the home.
    Floor,
    /// A room on some floor.
    Room,
}

#[derive(Clone, Debug)]
struct PlaceNode {
    kind: PlaceKind,
    parent: Option<PlaceId>,
}

/// The containment tree of a home: one root, floors beneath it, rooms
/// beneath floors.
///
/// # Example
///
/// ```
/// use cadel_types::{Topology, PlaceId};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut home = Topology::new("home");
/// home.add_floor("first floor")?;
/// home.add_room("living room", "first floor")?;
/// assert!(home.contains(&PlaceId::new("first floor"), &PlaceId::new("living room"))?);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct Topology {
    root: PlaceId,
    places: BTreeMap<PlaceId, PlaceNode>,
}

impl Topology {
    /// Creates a topology with a single root place of kind
    /// [`PlaceKind::Home`].
    pub fn new(home_name: impl AsRef<str>) -> Topology {
        let root = PlaceId::new(home_name);
        let mut places = BTreeMap::new();
        places.insert(
            root.clone(),
            PlaceNode {
                kind: PlaceKind::Home,
                parent: None,
            },
        );
        Topology { root, places }
    }

    /// The root (home) place.
    pub fn root(&self) -> &PlaceId {
        &self.root
    }

    /// Adds a floor directly under the home root.
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError::DuplicatePlace`] if the name is taken.
    pub fn add_floor(&mut self, name: impl AsRef<str>) -> Result<PlaceId, TopologyError> {
        let id = PlaceId::new(name);
        if self.places.contains_key(&id) {
            return Err(TopologyError::DuplicatePlace(id.as_str().to_owned()));
        }
        self.places.insert(
            id.clone(),
            PlaceNode {
                kind: PlaceKind::Floor,
                parent: Some(self.root.clone()),
            },
        );
        Ok(id)
    }

    /// Adds a room under an existing floor (or directly under the home for
    /// single-storey setups).
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError::DuplicatePlace`] if the name is taken,
    /// [`TopologyError::UnknownPlace`] if the parent does not exist, and
    /// [`TopologyError::InvalidParent`] if the parent is itself a room.
    pub fn add_room(
        &mut self,
        name: impl AsRef<str>,
        parent: impl AsRef<str>,
    ) -> Result<PlaceId, TopologyError> {
        let id = PlaceId::new(name);
        let parent_id = PlaceId::new(parent);
        if self.places.contains_key(&id) {
            return Err(TopologyError::DuplicatePlace(id.as_str().to_owned()));
        }
        let parent_node = self
            .places
            .get(&parent_id)
            .ok_or_else(|| TopologyError::UnknownPlace(parent_id.as_str().to_owned()))?;
        if parent_node.kind == PlaceKind::Room {
            return Err(TopologyError::InvalidParent {
                child: id.as_str().to_owned(),
                parent: parent_id.as_str().to_owned(),
            });
        }
        self.places.insert(
            id.clone(),
            PlaceNode {
                kind: PlaceKind::Room,
                parent: Some(parent_id),
            },
        );
        Ok(id)
    }

    /// Whether `place` is known to this topology.
    pub fn knows(&self, place: &PlaceId) -> bool {
        self.places.contains_key(place)
    }

    /// The kind of a place.
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError::UnknownPlace`] for unregistered places.
    pub fn kind(&self, place: &PlaceId) -> Result<PlaceKind, TopologyError> {
        self.places
            .get(place)
            .map(|n| n.kind)
            .ok_or_else(|| TopologyError::UnknownPlace(place.as_str().to_owned()))
    }

    /// The parent of a place (`None` for the root).
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError::UnknownPlace`] for unregistered places.
    pub fn parent(&self, place: &PlaceId) -> Result<Option<&PlaceId>, TopologyError> {
        self.places
            .get(place)
            .map(|n| n.parent.as_ref())
            .ok_or_else(|| TopologyError::UnknownPlace(place.as_str().to_owned()))
    }

    /// Whether `descendant` equals or lies inside `ancestor`.
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError::UnknownPlace`] if either place is
    /// unregistered.
    pub fn contains(
        &self,
        ancestor: &PlaceId,
        descendant: &PlaceId,
    ) -> Result<bool, TopologyError> {
        if !self.knows(ancestor) {
            return Err(TopologyError::UnknownPlace(ancestor.as_str().to_owned()));
        }
        let mut cursor = Some(descendant.clone());
        while let Some(place) = cursor {
            if &place == ancestor {
                return Ok(true);
            }
            cursor = self.parent(&place)?.cloned();
        }
        Ok(false)
    }

    /// All places of the given kind, in name order.
    pub fn places_of_kind(&self, kind: PlaceKind) -> Vec<&PlaceId> {
        self.places
            .iter()
            .filter(|(_, n)| n.kind == kind)
            .map(|(id, _)| id)
            .collect()
    }

    /// All rooms of the home, in name order.
    pub fn rooms(&self) -> Vec<&PlaceId> {
        self.places_of_kind(PlaceKind::Room)
    }

    /// The floor a room sits on, or the room's direct parent if it hangs
    /// off the home root.
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError::UnknownPlace`] for unregistered places.
    pub fn floor_of(&self, room: &PlaceId) -> Result<Option<&PlaceId>, TopologyError> {
        let parent = self.parent(room)?;
        Ok(match parent {
            Some(p) if self.kind(p)? == PlaceKind::Floor => Some(p),
            _ => None,
        })
    }

    /// Whether a place (given by a location fact about a device/person)
    /// matches a retrieval scope.
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError::UnknownPlace`] if the scope names an
    /// unregistered place.
    pub fn matches(
        &self,
        scope: &LocationSelector,
        place: &PlaceId,
    ) -> Result<bool, TopologyError> {
        match scope {
            LocationSelector::Anywhere => Ok(true),
            LocationSelector::Within(ancestor) => self.contains(ancestor, place),
        }
    }
}

/// A retrieval scope for the guidance/lookup service — "within the current
/// room", "within the first floor", or anywhere in the home.
#[derive(Clone, Debug, PartialEq, Eq, Hash, Default)]
pub enum LocationSelector {
    /// No location restriction.
    #[default]
    Anywhere,
    /// Restrict to places equal to or inside the named place.
    Within(PlaceId),
}

impl LocationSelector {
    /// Convenience constructor for `Within`.
    pub fn within(place: impl AsRef<str>) -> LocationSelector {
        LocationSelector::Within(PlaceId::new(place))
    }
}

impl fmt::Display for LocationSelector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LocationSelector::Anywhere => f.write_str("anywhere"),
            LocationSelector::Within(p) => write!(f, "within {p}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_home() -> Topology {
        let mut t = Topology::new("Home");
        t.add_floor("First Floor").unwrap();
        t.add_floor("Second Floor").unwrap();
        t.add_room("Living Room", "First Floor").unwrap();
        t.add_room("Kitchen", "First Floor").unwrap();
        t.add_room("Bedroom", "Second Floor").unwrap();
        t
    }

    #[test]
    fn place_ids_are_case_insensitive() {
        assert_eq!(PlaceId::new("Living Room"), PlaceId::new("living room"));
        assert_eq!(PlaceId::new("  Hall  ").as_str(), "hall");
    }

    #[test]
    fn containment_works_transitively() {
        let t = sample_home();
        let home = PlaceId::new("home");
        let first = PlaceId::new("first floor");
        let living = PlaceId::new("living room");
        let bedroom = PlaceId::new("bedroom");
        assert!(t.contains(&home, &living).unwrap());
        assert!(t.contains(&first, &living).unwrap());
        assert!(!t.contains(&first, &bedroom).unwrap());
        assert!(t.contains(&living, &living).unwrap());
        assert!(!t.contains(&living, &first).unwrap());
    }

    #[test]
    fn duplicate_and_unknown_places_error() {
        let mut t = sample_home();
        assert!(matches!(
            t.add_room("Living Room", "First Floor"),
            Err(TopologyError::DuplicatePlace(_))
        ));
        assert!(matches!(
            t.add_room("Den", "Basement"),
            Err(TopologyError::UnknownPlace(_))
        ));
        assert!(matches!(
            t.add_room("Closet", "Living Room"),
            Err(TopologyError::InvalidParent { .. })
        ));
    }

    #[test]
    fn room_under_home_root_is_allowed() {
        let mut t = Topology::new("studio");
        let id = t.add_room("main room", "studio").unwrap();
        assert_eq!(t.kind(&id).unwrap(), PlaceKind::Room);
        assert!(t.floor_of(&id).unwrap().is_none());
    }

    #[test]
    fn floor_of_resolves() {
        let t = sample_home();
        let living = PlaceId::new("living room");
        assert_eq!(
            t.floor_of(&living).unwrap().unwrap(),
            &PlaceId::new("first floor")
        );
    }

    #[test]
    fn enumeration_is_ordered() {
        let t = sample_home();
        let rooms: Vec<_> = t.rooms().iter().map(|p| p.as_str().to_owned()).collect();
        assert_eq!(rooms, ["bedroom", "kitchen", "living room"]);
        assert_eq!(t.places_of_kind(PlaceKind::Floor).len(), 2);
    }

    #[test]
    fn location_selector_matching() {
        let t = sample_home();
        let living = PlaceId::new("living room");
        assert!(t.matches(&LocationSelector::Anywhere, &living).unwrap());
        assert!(t
            .matches(&LocationSelector::within("first floor"), &living)
            .unwrap());
        assert!(!t
            .matches(&LocationSelector::within("second floor"), &living)
            .unwrap());
        assert!(t
            .matches(&LocationSelector::within("attic"), &living)
            .is_err());
    }
}
