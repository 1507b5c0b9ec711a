//! Error type for the recipe store.

use std::fmt;

/// Convenience alias.
pub type Result<T> = std::result::Result<T, RecipeDbError>;

/// Errors raised by recipe-store operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecipeDbError {
    /// A recipe needs at least one ingredient to be stored (the paper
    /// only keeps recipes whose ingredient list is available).
    EmptyRecipe(String),
    /// No recipe with this id.
    UnknownRecipe(u32),
    /// An ingredient id referenced by a recipe is not live in the
    /// flavor database it was validated against.
    UnknownIngredient(u32),
    /// Decoding an artifact into an owned value failed.
    Snapshot(String),
    /// Import-log (WAL) framing, decoding, or replay-consistency
    /// failure (see [`crate::wal`]).
    Wal(String),
    /// A batch-import worker died (panicked) while resolving the recipe
    /// at `index`. Error-shaped resolution problems are collected into
    /// [`ImportStats::failures`](crate::import::ImportStats::failures)
    /// instead; this variant is reserved for the pool's panic isolation.
    Worker {
        /// Task index (position in the raw batch) of the recipe whose
        /// worker failed — deterministic: the lowest failing index wins
        /// regardless of thread count.
        index: usize,
        /// Rendered panic payload.
        message: String,
    },
}

impl fmt::Display for RecipeDbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecipeDbError::EmptyRecipe(name) => {
                write!(f, "recipe '{name}' has no ingredients")
            }
            RecipeDbError::UnknownRecipe(id) => write!(f, "unknown recipe id {id}"),
            RecipeDbError::UnknownIngredient(id) => write!(f, "unknown ingredient id {id}"),
            RecipeDbError::Snapshot(msg) => write!(f, "snapshot error: {msg}"),
            RecipeDbError::Wal(msg) => write!(f, "import log error: {msg}"),
            RecipeDbError::Worker { index, message } => {
                write!(f, "import worker failed on recipe {index}: {message}")
            }
        }
    }
}

impl std::error::Error for RecipeDbError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_contains_details() {
        assert!(RecipeDbError::EmptyRecipe("x".into())
            .to_string()
            .contains('x'));
        assert!(RecipeDbError::UnknownRecipe(3).to_string().contains('3'));
    }
}
