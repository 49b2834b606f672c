//! Field identities and storage.
//!
//! A *field* is a named 3-D array participating in a stage graph — an
//! external input (loaded from main memory each time step), an
//! intermediate (ideally kept in cache under the (3+1)D decomposition), or
//! an output. [`FieldId`] is a cheap index newtype; [`FieldTable`] interns
//! names.

use std::fmt;

/// Identifier of a field within one [`crate::StageGraph`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct FieldId(pub u32);

impl FieldId {
    /// The index as `usize`, for table lookups.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for FieldId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "field#{}", self.0)
    }
}

/// Role a field plays in a stage graph.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum FieldRole {
    /// Read-only input present in main memory before the time step.
    External,
    /// Produced and consumed within a time step.
    Intermediate,
    /// Final output written back to main memory.
    Output,
}

/// Interned field names and roles for a stage graph.
#[derive(Clone, Debug, Default)]
pub struct FieldTable {
    names: Vec<String>,
    roles: Vec<FieldRole>,
}

impl FieldTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a field and returns its id.
    ///
    /// # Panics
    ///
    /// Panics if the name is already registered.
    pub fn add(&mut self, name: &str, role: FieldRole) -> FieldId {
        assert!(
            !self.names.iter().any(|n| n == name),
            "duplicate field name {name:?}"
        );
        let id = FieldId(self.names.len() as u32);
        self.names.push(name.to_owned());
        self.roles.push(role);
        id
    }

    /// The name of `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not issued by this table.
    pub fn name(&self, id: FieldId) -> &str {
        &self.names[id.index()]
    }

    /// The role of `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not issued by this table.
    pub fn role(&self, id: FieldId) -> FieldRole {
        self.roles[id.index()]
    }

    /// Looks a field up by name.
    pub fn find(&self, name: &str) -> Option<FieldId> {
        self.names
            .iter()
            .position(|n| n == name)
            .map(|p| FieldId(p as u32))
    }

    /// Number of registered fields.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Whether no fields are registered.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Ids of all fields with the given role.
    pub fn with_role(&self, role: FieldRole) -> Vec<FieldId> {
        (0..self.names.len() as u32)
            .map(FieldId)
            .filter(|id| self.roles[id.index()] == role)
            .collect()
    }

    /// Iterates over `(id, name, role)`.
    pub fn iter(&self) -> impl Iterator<Item = (FieldId, &str, FieldRole)> {
        self.names
            .iter()
            .zip(&self.roles)
            .enumerate()
            .map(|(n, (name, role))| (FieldId(n as u32), name.as_str(), *role))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_add_and_lookup() {
        let mut t = FieldTable::new();
        let x = t.add("x", FieldRole::External);
        let f1 = t.add("f1", FieldRole::Intermediate);
        assert_eq!(t.name(x), "x");
        assert_eq!(t.role(f1), FieldRole::Intermediate);
        assert_eq!(t.find("f1"), Some(f1));
        assert_eq!(t.find("nope"), None);
        assert_eq!(t.len(), 2);
        assert_eq!(t.with_role(FieldRole::External), vec![x]);
    }

    #[test]
    #[should_panic]
    fn duplicate_name_panics() {
        let mut t = FieldTable::new();
        t.add("x", FieldRole::External);
        t.add("x", FieldRole::Output);
    }

    #[test]
    fn iter_yields_all() {
        let mut t = FieldTable::new();
        t.add("a", FieldRole::External);
        t.add("b", FieldRole::Output);
        let v: Vec<_> = t.iter().map(|(_, n, _)| n.to_owned()).collect();
        assert_eq!(v, vec!["a", "b"]);
    }
}
