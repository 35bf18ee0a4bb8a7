"""SMILES parsing and circular fingerprint generation."""
