"""Shoulder-season analytics for electric-grid load and temperature data.

Finds the lowest-demand 45-day windows of each half-year, tracks how
their onsets drift over time, projects them along corrected climate-
ensemble warming paths, and sizes the winter maintenance deficit.
"""

__version__ = "0.1.0"
