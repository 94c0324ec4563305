"""Benchmark of magbottle through its command-line interface; see run.py."""
