"""Closed-loop benchmark for qga; see ``run.py`` for usage."""
