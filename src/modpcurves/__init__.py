"""Toolkit for mod-p representation fingerprints of elliptic curves over Q."""
