"""Small shared utilities: units, validation, RNG handling and statistics."""
